//! # acc-spacegrid
//!
//! A partitioned, multi-server tuple space. The paper's single JavaSpace
//! is the framework's throughput ceiling and availability single point of
//! failure; [`PartitionedSpace`] shards past it by spreading tuples over
//! N independent [`SpaceServer`](acc_tuplespace::SpaceServer)s while
//! still presenting the one [`TupleStore`] interface masters and workers
//! already speak — dispatch, prefetch and durability all
//! work unchanged through the grid.
//!
//! * **Routing** ([`route_tuple`], [`route_template`]): every write
//!   lands on the deterministic FNV-1a owner of the tuple's key fields
//!   (or of the whole tuple in spread mode). Templates that pin all key fields route straight to
//!   the owner; anything else scatter-gathers.
//! * **Scatter-gather**: non-blocking lookups sweep the healthy shards;
//!   blocking `read`/`take` fan out one helper thread per shard running
//!   short blocking slices, with first-wins cancellation — a losing
//!   `take` restores its tuple to the shard it came from (the
//!   client-side mirror of the server's `restore_unacked`), retrying
//!   and falling back to another shard rather than ever dropping it,
//!   and a gatherer that times out while a win is in flight recovers
//!   and restores that straggler win the same way. Keyed routed lookups
//!   that miss on the owner fall back to a scatter before reporting
//!   `None`, so a tuple another client rerouted off its owner is still
//!   found.
//! * **Batching**: `write_all` splits the batch by owner and sends the
//!   per-shard groups split-phase from the calling thread — every
//!   shard's request frames (with their
//!   `BATCH_FRAME_BUDGET` chunking) go out on its own connection before
//!   the first response is read, so the shards work concurrently and no
//!   helper thread is spawned; `take_up_to` and `take_all` fan
//!   quota-bounded batch takes out the same way.
//! * **Degradation**: a shard whose connection keeps failing (after
//!   [`RemoteSpace`]'s own reconnect-and-retry) is marked unhealthy:
//!   writes deterministically probe onward to the next healthy shard,
//!   scatters skip it, and a background prober readmits it when it
//!   answers again. One dead shard degrades the grid instead of killing
//!   the cluster.
//! * **Lookup**: [`PartitionedSpace::publish`] keeps the shard list as
//!   one entry in shard 0, and [`PartitionedSpace::discover`] reads it
//!   back, so a client process needs shard 0's address alone — the
//!   paper's Jini lookup, as template matching in the space itself.
//!
//! Telemetry: per-shard op latency (`grid.shard<i>.op_us`), scatter
//! fan-out width (`grid.scatter.fanout`), rerouted writes
//! (`grid.rerouted_writes`), first-wins restores (`grid.restored_tuples`)
//! and restore failures (`grid.lost_tuples` — every increment is also
//! logged to stderr). Shard health is in [`PartitionedSpace::to_json`].

#![warn(missing_docs)]

mod router;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use acc_tuplespace::{
    write_all_then_take_up_to_in_sequence, EntryId, Lease, Pending, RemoteSpace, SpaceError,
    SpaceResult, Template, Tuple, TupleStore, Value, WriteThenTake,
};

pub use router::{route_template, route_tuple, tuple_hash, GridConfig};

/// Grid-wide telemetry series (see the crate docs for the name list).
struct GridSeries {
    rerouted_writes: Arc<acc_telemetry::Counter>,
    restored_tuples: Arc<acc_telemetry::Counter>,
    lost_tuples: Arc<acc_telemetry::Counter>,
    scatter_fanout: Arc<acc_telemetry::Histogram>,
}

fn series() -> &'static GridSeries {
    static SERIES: std::sync::OnceLock<GridSeries> = std::sync::OnceLock::new();
    SERIES.get_or_init(|| {
        let r = acc_telemetry::registry();
        GridSeries {
            rerouted_writes: r.counter("grid.rerouted_writes"),
            restored_tuples: r.counter("grid.restored_tuples"),
            lost_tuples: r.counter("grid.lost_tuples"),
            scatter_fanout: r.histogram("grid.scatter.fanout"),
        }
    })
}

/// Per-shard op-latency histograms are keyed by shard index, not by
/// grid instance: every client process talking to shard *i* reports into
/// `grid.shard<i>.op_us`. The registry wants `&'static str` names, so
/// each index's formatted name is leaked exactly once and memoized —
/// reconnecting clients (one per added worker) reuse the same `&'static
/// str` instead of leaking a fresh copy per connect.
fn shard_op_histogram(index: usize) -> Arc<acc_telemetry::Histogram> {
    static NAMES: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
    let name = {
        let mut names = NAMES.lock().expect("shard-name memo poisoned");
        while names.len() <= index {
            let i = names.len();
            names.push(Box::leak(format!("grid.shard{i}.op_us").into_boxed_str()));
        }
        names[index]
    };
    acc_telemetry::registry().histogram(name)
}

/// Type name of a grid's lookup entry (see [`PartitionedSpace::publish`]).
pub const LOOKUP_TYPE: &str = "acc.lookup";

/// Tuples asked of each shard per round of a [`PartitionedSpace::take_all`]
/// drain (the per-frame cap `RemoteSpace::take_all` drains with).
const DRAIN_BATCH: usize = 4096;

/// One shard of the grid: a [`RemoteSpace`] connection plus its health
/// mark. The health mark is per *client* (each grid instance judges its
/// own connections), which is exactly what routing needs — a shard this
/// client cannot reach must be routed around by this client, whatever
/// other clients see.
struct Shard {
    index: usize,
    addr: SocketAddr,
    remote: RemoteSpace,
    healthy: AtomicBool,
    op_us: Arc<acc_telemetry::Histogram>,
}

impl Shard {
    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Runs one operation against the shard; see [`Shard::account`].
    fn call<T>(&self, op: impl FnOnce(&RemoteSpace) -> SpaceResult<T>) -> SpaceResult<T> {
        let start = Instant::now();
        self.account(start, op(&self.remote))
    }

    /// Books one finished operation: records its latency and downgrades
    /// the shard on a connection-level failure. [`RemoteSpace`] has
    /// already absorbed one reconnect-and-resend by the time `Transport`
    /// surfaces here, so a failure at this layer means the server is
    /// genuinely unreachable (or desynced, for `Protocol`) — strike it
    /// out rather than hammering it.
    fn account<T>(&self, start: Instant, result: SpaceResult<T>) -> SpaceResult<T> {
        self.op_us.observe(start.elapsed().as_micros() as u64);
        match &result {
            Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {
                self.healthy.store(false, Ordering::SeqCst)
            }
            _ => {}
        }
        result
    }
}

/// Split-phase fan-out of one batch operation over several shards, on the
/// calling thread: `begin` puts each shard's request on the wire, and only
/// when all of them are out are the responses collected — the shards work
/// concurrently and the caller pays about one round trip, with no helper
/// thread to spawn and join. Every op goes through [`Shard::account`], so
/// health strikes and the per-shard histograms see it exactly as they see
/// [`Shard::call`].
///
/// `targets` must be in ascending shard order. A [`Pending`] holds its
/// connection's lock, so this holds several at once; a fixed acquisition
/// order is what keeps two threads sharing one grid client (the master and
/// its metrics collector, say) from deadlocking on them.
fn fan_out<'a, X, T>(
    targets: impl IntoIterator<Item = (&'a Arc<Shard>, X)>,
    mut begin: impl FnMut(&'a RemoteSpace, X) -> Pending<'a, T>,
) -> Vec<SpaceResult<T>> {
    let sent: Vec<_> = targets
        .into_iter()
        .map(|(shard, arg)| (shard, Instant::now(), begin(&shard.remote, arg)))
        .collect();
    sent.into_iter()
        .map(|(shard, start, pending)| shard.account(start, pending.finish()))
        .collect()
}

/// Outcome events a scatter helper thread reports to its caller. `Win`
/// carries the shard the tuple came from so that a gatherer abandoning
/// the wait (timeout) can restore a straggler win to its origin instead
/// of dropping it on the channel floor.
enum HelperEvent {
    /// This helper won the race; the tuple is the operation's result.
    Win(Tuple, Arc<Shard>),
    /// The remote space reports closed — the grid must propagate it.
    Closed,
    /// The helper gave up (shard error or deadline) without a match.
    Exit,
}

/// Everything needed to put a taken-but-unwanted tuple back into the
/// grid: the shard list for fallback targets and the shared reroute
/// latch to trip when a restore lands off its origin shard.
struct RestoreCtx {
    shards: Vec<Arc<Shard>>,
    rerouted: Arc<AtomicBool>,
}

/// Puts back a tuple that a `take` removed but the operation will not
/// deliver (a helper lost the first-wins race, or the gatherer timed
/// out while a win was in flight). The original lease is unknowable
/// client-side — `take` returns the tuple alone and the server entry is
/// gone — so the restore re-writes with the default forever lease,
/// erring toward never losing a tuple at the cost of a bounded-lease
/// entry outliving its deadline.
///
/// The origin shard is retried first (routing invariants stay intact);
/// if it stays unreachable, any healthy shard beats a lost tuple — but
/// landing off-origin may move the tuple off its owner, so that path
/// counts as a reroute and trips the keyed-routing latch. Only when
/// every attempt fails is the tuple abandoned, and loudly: the
/// `grid.lost_tuples` counter and stderr both record it.
fn restore_tuple(ctx: &RestoreCtx, origin: &Arc<Shard>, tuple: Tuple) {
    // One extra origin attempt on top of RemoteSpace's own
    // reconnect-and-resend, in case the first hits a transient fault.
    for _ in 0..2 {
        match origin.call(|r| r.write(tuple.clone())) {
            Ok(_) => {
                series().restored_tuples.inc();
                return;
            }
            // The space itself is gone; there is nothing to preserve
            // the tuple *for*.
            Err(SpaceError::Closed) => return,
            Err(_) => {}
        }
    }
    for shard in &ctx.shards {
        if shard.index == origin.index || !shard.is_healthy() {
            continue;
        }
        match shard.call(|r| r.write(tuple.clone())) {
            Ok(_) => {
                series().restored_tuples.inc();
                series().rerouted_writes.inc();
                ctx.rerouted.store(true, Ordering::SeqCst);
                return;
            }
            Err(SpaceError::Closed) => return,
            Err(_) => {}
        }
    }
    series().lost_tuples.inc();
    eprintln!(
        "acc: grid failed to restore a taken '{}' tuple (shard {} and every fallback unreachable); tuple dropped",
        tuple.type_name(),
        origin.index
    );
}

/// A partitioned tuple space: the full [`TupleStore`] contract over N
/// [`RemoteSpace`] shards. See the crate docs for the routing,
/// scatter-gather and degradation semantics; see [`GridConfig`] for the
/// tunables.
///
/// A `PartitionedSpace` owns one connection per shard and, like
/// [`RemoteSpace`], serves one caller per connection at a time: give
/// each worker its own instance (via [`PartitionedSpace::reconnect`])
/// rather than sharing one across threads.
pub struct PartitionedSpace {
    shards: Vec<Arc<Shard>>,
    config: GridConfig,
    closed: AtomicBool,
    /// This client's local knowledge that some write (or restore) went
    /// off its owner shard, making keyed template routing pointless —
    /// once set, routed lookups skip the owner attempt and go straight
    /// to scatter. This is a latency optimisation, not the correctness
    /// mechanism: reroutes by *other* clients are invisible here, so
    /// routed lookups that miss always fall back to a scatter before
    /// returning `None` (see [`PartitionedSpace::route`]). Shared
    /// (`Arc`) with scatter helpers so restore fallbacks can trip it.
    ever_rerouted: Arc<AtomicBool>,
    /// Rotates the starting shard of scatter sweeps so repeated
    /// non-blocking lookups don't always favour shard 0.
    sweep_cursor: AtomicUsize,
    prober: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
}

impl std::fmt::Debug for PartitionedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedSpace")
            .field("shards", &self.shards.len())
            .field("healthy", &self.healthy().len())
            .finish()
    }
}

impl PartitionedSpace {
    /// Connects to every shard with the default [`GridConfig`]. All
    /// shards must be reachable at connect time; degradation covers
    /// shards that fail *afterwards*.
    pub fn connect(addrs: &[SocketAddr]) -> std::io::Result<PartitionedSpace> {
        PartitionedSpace::connect_with(addrs, GridConfig::default())
    }

    /// Connects to every shard with explicit tunables.
    pub fn connect_with(
        addrs: &[SocketAddr],
        config: GridConfig,
    ) -> std::io::Result<PartitionedSpace> {
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a space grid needs at least one shard address",
            ));
        }
        let shards: Vec<Arc<Shard>> = addrs
            .iter()
            .enumerate()
            .map(|(index, &addr)| {
                Ok(Arc::new(Shard {
                    index,
                    addr,
                    remote: RemoteSpace::connect(addr)?,
                    healthy: AtomicBool::new(true),
                    op_us: shard_op_histogram(index),
                }))
            })
            .collect::<std::io::Result<_>>()?;
        let prober = PartitionedSpace::spawn_prober(&shards, config.reprobe_interval);
        Ok(PartitionedSpace {
            shards,
            config,
            closed: AtomicBool::new(false),
            ever_rerouted: Arc::new(AtomicBool::new(false)),
            sweep_cursor: AtomicUsize::new(0),
            prober: Some(prober),
        })
    }

    /// Background prober: an unhealthy shard rejoins the grid as soon as
    /// it answers a probe (`count` of an any-type template — cheap, and
    /// it exercises the same reconnect path real traffic would).
    fn spawn_prober(
        shards: &[Arc<Shard>],
        interval: Duration,
    ) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let shards: Vec<Arc<Shard>> = shards.to_vec();
        let thread = std::thread::Builder::new()
            .name("acc-grid-prober".into())
            .spawn(move || {
                let probe = Template::any_type().done();
                while !stop2.load(Ordering::SeqCst) {
                    for shard in &shards {
                        if !shard.is_healthy() && shard.remote.count(&probe).is_ok() {
                            shard.healthy.store(true, Ordering::SeqCst);
                        }
                    }
                    // Sleep in slices so drop/shutdown stays prompt.
                    let deadline = Instant::now() + interval;
                    while Instant::now() < deadline && !stop2.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(10).min(interval));
                    }
                }
            })
            .expect("spawn grid prober thread");
        (stop, thread)
    }

    /// The shard addresses, in routing order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.addr).collect()
    }

    /// Total number of shards (healthy or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of currently healthy shards.
    pub fn healthy_count(&self) -> usize {
        self.healthy().len()
    }

    /// Per-shard scatter-gather fan-out attribution: cumulative op count
    /// and total latency per shard, from the process-wide `op_us`
    /// histograms. Cumulative since process start — callers attributing a
    /// window (a job run) snapshot before and diff with
    /// [`fanout_since`](PartitionedSpace::fanout_since).
    pub fn fanout_profile(&self) -> Vec<acc_telemetry::profile::ShardPhase> {
        self.shards
            .iter()
            .map(|s| {
                let snap = s.op_us.snapshot();
                acc_telemetry::profile::ShardPhase {
                    index: s.index,
                    addr: s.addr.to_string(),
                    ops: snap.count,
                    total_us: snap.sum,
                }
            })
            .collect()
    }

    /// The fan-out accrued since a [`fanout_profile`](PartitionedSpace::fanout_profile)
    /// snapshot: per-shard op/latency deltas (missing shards count from
    /// zero).
    pub fn fanout_since(
        &self,
        before: &[acc_telemetry::profile::ShardPhase],
    ) -> Vec<acc_telemetry::profile::ShardPhase> {
        self.fanout_profile()
            .into_iter()
            .map(|mut now| {
                if let Some(prev) = before.iter().find(|p| p.index == now.index) {
                    now.ops = now.ops.saturating_sub(prev.ops);
                    now.total_us = now.total_us.saturating_sub(prev.total_us);
                }
                now
            })
            .collect()
    }

    /// The `grid` section of `/cluster.json`: per-shard identity and
    /// health in routing order, plus the reroute counters.
    pub fn to_json(&self) -> acc_telemetry::Json {
        use acc_telemetry::Json;
        let shards = self.shards.iter().map(|s| {
            Json::object([
                ("index", s.index.into()),
                ("addr", s.addr.to_string().into()),
                ("healthy", s.is_healthy().into()),
            ])
        });
        Json::object([
            ("total", self.shard_count().into()),
            ("healthy", self.healthy_count().into()),
            ("rerouted_writes", series().rerouted_writes.get().into()),
            ("restored_tuples", series().restored_tuples.get().into()),
            ("shards", shards.collect()),
        ])
    }

    /// A fresh grid client over the same shards and tunables — each
    /// worker gets its own connections, as with [`RemoteSpace`]. The
    /// clone shares this client's reroute latch, so reroutes either one
    /// observes retire the other's routed fast path too (reroutes by
    /// unrelated clients remain invisible — routed misses fall back to
    /// scatter to cover those).
    pub fn reconnect(&self) -> std::io::Result<PartitionedSpace> {
        let mut grid = PartitionedSpace::connect_with(&self.addrs(), self.config.clone())?;
        grid.ever_rerouted = self.ever_rerouted.clone();
        Ok(grid)
    }

    /// Publishes the grid's lookup entry: one [`LOOKUP_TYPE`] tuple in
    /// shard 0 whose `shards` field lists every shard address in routing
    /// order, replacing any earlier entry. With it, shard 0's address is
    /// all a client needs to find the grid ([`PartitionedSpace::discover`]).
    pub fn publish(&self) -> SpaceResult<()> {
        let shard0 = &self.shards[0];
        let shards: Vec<Value> = self.addrs().iter().map(|a| a.to_string().into()).collect();
        let entry = Tuple::build(LOOKUP_TYPE).field("shards", shards).done();
        shard0.call(|r| r.take_all(&Template::of_type(LOOKUP_TYPE)))?;
        shard0.call(|r| r.write(entry))?;
        Ok(())
    }

    /// Connects the grid whose lookup entry the space at `addr` holds —
    /// the published shard 0 — with the default [`GridConfig`]. Fails,
    /// naming `addr`, when that space is unreachable or holds no entry.
    pub fn discover(addr: SocketAddr) -> std::io::Result<PartitionedSpace> {
        let fail = |why: String| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("space grid lookup at {addr}: {why}"),
            )
        };
        let entry = RemoteSpace::connect(addr)
            .map_err(|e| fail(e.to_string()))?
            .read_if_exists(&Template::of_type(LOOKUP_TYPE))
            .map_err(|e| fail(e.to_string()))?
            .ok_or_else(|| fail("no lookup entry".into()))?;
        let addrs: Option<Vec<SocketAddr>> = match entry.get("shards") {
            Some(Value::List(list)) => list
                .iter()
                .map(|v| v.as_str().and_then(|a| a.parse().ok()))
                .collect(),
            _ => None,
        };
        let addrs = addrs.ok_or_else(|| fail(format!("malformed entry {entry}")))?;
        PartitionedSpace::connect(&addrs)
    }

    fn ensure_open(&self) -> SpaceResult<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(SpaceError::Closed);
        }
        Ok(())
    }

    fn healthy(&self) -> Vec<Arc<Shard>> {
        self.shards
            .iter()
            .filter(|s| s.is_healthy())
            .cloned()
            .collect()
    }

    fn no_healthy() -> SpaceError {
        SpaceError::Transport("space grid: no healthy shards".into())
    }

    /// The shard a write of `tuple` goes to *now*: the deterministic
    /// owner, or — when the owner is down — the next healthy shard in
    /// probe order. Rerouting trips [`Self::ever_rerouted`], which
    /// retires keyed template routing for this client (the tuple is no
    /// longer guaranteed to be on its owner).
    fn write_target(&self, tuple: &Tuple) -> SpaceResult<Arc<Shard>> {
        let n = self.shards.len();
        let owner = route_tuple(tuple, &self.config.key_fields, n);
        for probe in 0..n {
            let shard = &self.shards[(owner + probe) % n];
            if shard.is_healthy() {
                if probe > 0 {
                    series().rerouted_writes.inc();
                    self.ever_rerouted.store(true, Ordering::SeqCst);
                }
                return Ok(shard.clone());
            }
        }
        Err(PartitionedSpace::no_healthy())
    }

    /// The owner shard a lookup should *try first*: keyed mode, fully
    /// bound template, no reroute known to this client, owner healthy.
    /// Everything else scatters immediately.
    ///
    /// A routed *hit* is always valid (reroutes move tuples, they never
    /// duplicate them), but a routed *miss* is not authoritative: some
    /// other client may have rerouted the tuple off its owner, and that
    /// is invisible to this client's `ever_rerouted` latch. Every caller
    /// must therefore treat a routed `Ok(None)` / empty result as "not
    /// on the owner" and fall back to a scatter before reporting a miss
    /// — and ops whose result aggregates over matches (`count`,
    /// `take_all`) must not use routing at all.
    fn route(&self, template: &Template) -> Option<Arc<Shard>> {
        if self.ever_rerouted.load(Ordering::SeqCst) {
            return None;
        }
        let index = route_template(template, &self.config.key_fields, self.shards.len())?;
        let shard = &self.shards[index];
        shard.is_healthy().then(|| shard.clone())
    }

    /// One non-blocking sweep over the healthy shards, starting from the
    /// rotating cursor. Shard errors degrade (the shard is struck out and
    /// the sweep moves on); `Closed` propagates.
    fn sweep_one(&self, template: &Template, destructive: bool) -> SpaceResult<Option<Tuple>> {
        let healthy = self.healthy();
        if healthy.is_empty() {
            return Err(PartitionedSpace::no_healthy());
        }
        series().scatter_fanout.observe(healthy.len() as u64);
        let start = self.sweep_cursor.fetch_add(1, Ordering::Relaxed);
        for k in 0..healthy.len() {
            let shard = &healthy[(start + k) % healthy.len()];
            let got = shard.call(|r| {
                if destructive {
                    r.take_if_exists(template)
                } else {
                    r.read_if_exists(template)
                }
            });
            match got {
                Ok(Some(tuple)) => return Ok(Some(tuple)),
                Ok(None) => {}
                Err(SpaceError::Closed) => {
                    self.closed.store(true, Ordering::SeqCst);
                    return Err(SpaceError::Closed);
                }
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Blocking scatter lookup: a helper thread per healthy shard runs
    /// short blocking slices ([`GridConfig::take_slice`]) against its
    /// shard, checking the shared first-wins flag between slices.
    ///
    /// Lock/thread ordering, and why this cannot deadlock or lose
    /// tuples:
    /// 1. the main thread holds **no** shard connection while waiting —
    ///    it blocks on the event channel only;
    /// 2. each helper touches exactly one shard connection (its own), so
    ///    helpers never wait on each other;
    /// 3. the first helper to flip the `done` flag owns the result; any
    ///    later match is a *loser* and is restored to the shard it was
    ///    taken from (client-side `restore_unacked`, see
    ///    [`restore_tuple`]) before the helper exits;
    /// 4. the gatherer abandons the wait (deadline) by *swapping* `done`
    ///    rather than storing it: a `true` result means some helper's
    ///    own swap beat ours — it won and its `Win` is in flight on the
    ///    channel — so the gatherer drains the channel for that
    ///    straggler win and restores its tuple before returning `None`.
    ///    Without the swap handshake the `Win` would be dropped with
    ///    `rx` and the already-taken tuple lost;
    /// 5. helpers are detached, not joined: the winner returns
    ///    immediately, and stragglers die within one slice of `done`
    ///    flipping (dropping their channel senders, which bounds the
    ///    straggler drain in step 4). A straggler's connection mutex may
    ///    be held for up to one slice after the call returns — the next
    ///    operation on that shard simply queues behind it.
    fn scatter_blocking(
        &self,
        template: &Template,
        deadline: Option<Instant>,
        destructive: bool,
    ) -> SpaceResult<Option<Tuple>> {
        let ctx = Arc::new(RestoreCtx {
            shards: self.shards.clone(),
            rerouted: self.ever_rerouted.clone(),
        });
        loop {
            self.ensure_open()?;
            // Fast path: anything already matching anywhere? Runs before
            // any deadline check so a zero timeout (the `*_if_exists`
            // contract) still gets one full sweep.
            if let Some(tuple) = self.sweep_one(template, destructive)? {
                return Ok(Some(tuple));
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Ok(None);
                }
            }
            let healthy = self.healthy();
            if healthy.is_empty() {
                return Err(PartitionedSpace::no_healthy());
            }
            let job = Arc::new(HelperJob {
                template: template.clone(),
                deadline,
                slice: self.config.take_slice,
                destructive,
                done: AtomicBool::new(false),
                restore: ctx.clone(),
            });
            let (tx, rx) = mpsc::channel::<HelperEvent>();
            let mut live = 0usize;
            for shard in healthy {
                let tx = tx.clone();
                let job = job.clone();
                std::thread::Builder::new()
                    .name(format!("acc-grid-scatter-{}", shard.index))
                    .spawn(move || helper_loop(shard, job, tx))
                    .expect("spawn grid scatter helper");
                live += 1;
            }
            drop(tx);
            // (decided result, whether we consumed a Win event).
            let (outcome, consumed_win) = loop {
                let event = match deadline {
                    None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                    Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                };
                match event {
                    Ok(HelperEvent::Win(tuple, _)) => break (Some(Ok(Some(tuple))), true),
                    Ok(HelperEvent::Closed) => {
                        self.closed.store(true, Ordering::SeqCst);
                        break (Some(Err(SpaceError::Closed)), false);
                    }
                    Ok(HelperEvent::Exit) => {
                        live -= 1;
                        if live == 0 {
                            // Every helper died (shard faults) or timed
                            // out; decide at the top of the outer loop.
                            break (None, false);
                        }
                    }
                    Err(_) => break (Some(Ok(None)), false), // deadline
                }
            };
            // Cancel the stragglers — with a `swap`, not a `store`, to
            // close the race the timeout path opens (ordering rule 4 in
            // the doc comment): `true` here without a consumed `Win`
            // means a helper's swap beat ours, it believes it won, and
            // its `Win` is in (or on its way into) the channel. Dropping
            // `rx` now would strand that already-taken tuple outside the
            // space, so wait for the event and put the tuple back. The
            // wait is bounded: every helper exits within one slice of
            // `done` flipping and drops its sender.
            if job.done.swap(true, Ordering::SeqCst) && !consumed_win {
                while let Ok(event) = rx.recv() {
                    if let HelperEvent::Win(tuple, origin) = event {
                        if destructive {
                            restore_tuple(&ctx, &origin, tuple);
                        }
                        break;
                    }
                }
            }
            match outcome {
                Some(result) => return result,
                None => continue,
            }
        }
    }

    /// One non-blocking batch sweep: every healthy shard is asked for a
    /// quota-bounded slice of `max` (quotas sum to `max`, so the merge can
    /// never overfetch and nothing needs restoring) in one split-phase
    /// [`fan_out`].
    fn sweep_take_up_to(&self, template: &Template, max: usize) -> SpaceResult<Vec<Tuple>> {
        let healthy = self.healthy();
        if healthy.is_empty() {
            return Err(PartitionedSpace::no_healthy());
        }
        series().scatter_fanout.observe(healthy.len() as u64);
        let n = healthy.len();
        // Rotate which shards get the remainder quotas, for fairness.
        let start = self.sweep_cursor.fetch_add(1, Ordering::Relaxed) % n;
        let quota = |i: usize| max / n + usize::from((i + n - start) % n < max % n);
        let asked = healthy
            .iter()
            .enumerate()
            .map(|(i, shard)| (shard, quota(i)))
            .filter(|(_, want)| *want > 0);
        let results = fan_out(asked, |remote, want| {
            remote.begin_take_up_to(template, want)
        });
        self.merge_batches(results)
    }

    /// Concatenates per-shard batch results. Struck shards degrade the
    /// result, not the caller; `Closed` latches and propagates.
    fn merge_batches(&self, results: Vec<SpaceResult<Vec<Tuple>>>) -> SpaceResult<Vec<Tuple>> {
        let mut out = Vec::new();
        for result in results {
            match result {
                Ok(batch) => out.extend(batch),
                Err(SpaceError::Closed) => {
                    self.closed.store(true, Ordering::SeqCst);
                    return Err(SpaceError::Closed);
                }
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

/// Shared state of one scatter-gather round: the lookup parameters, the
/// first-wins flag, and the restore context losers use to put their
/// tuples back. One per [`PartitionedSpace::scatter_blocking`] round,
/// shared by the gatherer and every helper.
struct HelperJob {
    template: Template,
    deadline: Option<Instant>,
    slice: Duration,
    destructive: bool,
    done: AtomicBool,
    restore: Arc<RestoreCtx>,
}

/// Body of one scatter helper thread; see
/// [`PartitionedSpace::scatter_blocking`] for the ordering rules.
fn helper_loop(shard: Arc<Shard>, job: Arc<HelperJob>, tx: mpsc::Sender<HelperEvent>) {
    while !job.done.load(Ordering::SeqCst) {
        let wait = match job.deadline {
            None => job.slice,
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                job.slice.min(remaining)
            }
        };
        let got = shard.call(|r| {
            if job.destructive {
                r.take(&job.template, Some(wait))
            } else {
                r.read(&job.template, Some(wait))
            }
        });
        match got {
            Ok(Some(tuple)) => {
                if !job.done.swap(true, Ordering::SeqCst) {
                    let _ = tx.send(HelperEvent::Win(tuple, shard));
                } else if job.destructive {
                    // Lost the race after removing a tuple: put it back
                    // so no other caller misses it.
                    restore_tuple(&job.restore, &shard, tuple);
                    let _ = tx.send(HelperEvent::Exit);
                }
                return;
            }
            Ok(None) => continue,
            Err(SpaceError::Closed) => {
                let _ = tx.send(HelperEvent::Closed);
                return;
            }
            // Transport/protocol: `call` already struck the shard out.
            Err(_) => break,
        }
    }
    let _ = tx.send(HelperEvent::Exit);
}

impl TupleStore for PartitionedSpace {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        self.ensure_open()?;
        // Each failed attempt strikes a shard out, so the probe sequence
        // advances; `shards + 1` attempts guarantees termination.
        let mut last_err = PartitionedSpace::no_healthy();
        for _ in 0..=self.shards.len() {
            let target = self.write_target(&tuple)?;
            match target.call(|r| r.write_leased(tuple.clone(), lease)) {
                Err(e @ SpaceError::Transport(_)) | Err(e @ SpaceError::Protocol(_)) => {
                    last_err = e;
                }
                other => return other,
            }
        }
        Err(last_err)
    }

    fn read(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.ensure_open()?;
        let deadline = timeout.map(|t| Instant::now() + t);
        // Single-shard fast path: one direct blocking call (the server
        // wakes it on a matching write) instead of sliced scatter polls.
        if self.shards.len() == 1 && self.shards[0].is_healthy() {
            match self.shards[0].call(|r| r.read(template, timeout)) {
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        if let Some(shard) = self.route(template) {
            match shard.call(|r| r.read(template, timeout)) {
                Ok(Some(tuple)) => return Ok(Some(tuple)),
                // A routed miss is not authoritative — another client
                // may have rerouted the tuple off its owner — so fall
                // through to a scatter (whose opening sweep runs even
                // with the deadline spent) before reporting `None`.
                Ok(None) => {}
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        self.scatter_blocking(template, deadline, false)
    }

    fn take(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.ensure_open()?;
        let deadline = timeout.map(|t| Instant::now() + t);
        // Single-shard fast path, as in `read`.
        if self.shards.len() == 1 && self.shards[0].is_healthy() {
            match self.shards[0].call(|r| r.take(template, timeout)) {
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        if let Some(shard) = self.route(template) {
            match shard.call(|r| r.take(template, timeout)) {
                Ok(Some(tuple)) => return Ok(Some(tuple)),
                // Routed miss: fall back to scatter, as in `read`.
                Ok(None) => {}
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        self.scatter_blocking(template, deadline, true)
    }

    /// Counts always sum over every healthy shard — no routed fast
    /// path. An owner-only count silently undercounts whenever any
    /// client ever rerouted a write (or restore) off that owner, and
    /// this client cannot know whether one did.
    fn count(&self, template: &Template) -> SpaceResult<usize> {
        self.ensure_open()?;
        let healthy = self.healthy();
        if healthy.is_empty() {
            return Err(PartitionedSpace::no_healthy());
        }
        let mut total = 0usize;
        for shard in healthy {
            match shard.call(|r| r.count(template)) {
                Ok(n) => total += n,
                Err(SpaceError::Closed) => {
                    self.closed.store(true, Ordering::SeqCst);
                    return Err(SpaceError::Closed);
                }
                // A shard dying mid-count degrades to a partial count,
                // consistent with scatter reads skipping dead shards.
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Best-effort: tell every shard, reachable or not, bypassing the
        // health filter (an "unhealthy" shard may still be up).
        for shard in &self.shards {
            shard.remote.close();
        }
    }

    fn is_closed(&self) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            return true;
        }
        self.healthy().iter().any(|s| s.remote.is_closed())
    }

    /// Drains every healthy shard — no routed fast path, for the same
    /// reason as [`PartitionedSpace::count`]: an owner-only drain would
    /// strand tuples another client rerouted off-owner. Rounds of
    /// split-phase batch takes over the shards that still had something
    /// last round, until every one has answered empty (or been struck).
    fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        self.ensure_open()?;
        let mut live = self.healthy();
        if live.is_empty() {
            return Err(PartitionedSpace::no_healthy());
        }
        series().scatter_fanout.observe(live.len() as u64);
        let mut out = Vec::new();
        while !live.is_empty() {
            let results = fan_out(live.iter().map(|shard| (shard, ())), |remote, ()| {
                remote.begin_take_up_to(template, DRAIN_BATCH)
            });
            let mut had_more = results
                .iter()
                .map(|r| matches!(r, Ok(batch) if !batch.is_empty()));
            live.retain(|_| had_more.next().expect("one result per live shard"));
            out.extend(self.merge_batches(results)?);
        }
        Ok(out)
    }

    /// Splits the batch by owner and sends the per-shard groups in one
    /// split-phase `fan_out` — each group rides its own connection's
    /// request frames (and their frame-budget chunking). Ids come
    /// back in input order. A group whose shard dies mid-write is
    /// re-dispatched through the (now updated) probe order; as with
    /// [`RemoteSpace`], the retry makes batch writes at-least-once.
    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        self.ensure_open()?;
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        // Single-shard fast path: there is no reroute target, so the
        // retry machinery below (which clones every tuple to be able to
        // regroup after a shard death) would be pure overhead. Move the
        // batch straight through.
        if self.shards.len() == 1 {
            let shard = &self.shards[0];
            if !shard.is_healthy() {
                return Err(PartitionedSpace::no_healthy());
            }
            return match shard.call(|r| r.write_all_leased(tuples, lease)) {
                Err(SpaceError::Closed) => {
                    self.closed.store(true, Ordering::SeqCst);
                    Err(SpaceError::Closed)
                }
                other => other,
            };
        }
        let mut ids: Vec<Option<EntryId>> = vec![None; tuples.len()];
        // (input position, tuple) pairs still to be written.
        let mut pending: Vec<(usize, Tuple)> = tuples.into_iter().enumerate().collect();
        let mut last_err = PartitionedSpace::no_healthy();
        for _ in 0..=self.shards.len() {
            if pending.is_empty() {
                break;
            }
            // Group by current write target (owner or reroute).
            type Group = (Arc<Shard>, Vec<(usize, Tuple)>);
            let mut groups: Vec<Group> = Vec::new();
            for (pos, tuple) in pending.drain(..) {
                let target = self.write_target(&tuple)?;
                match groups.iter_mut().find(|(s, _)| s.index == target.index) {
                    Some((_, group)) => group.push((pos, tuple)),
                    None => groups.push((target, vec![(pos, tuple)])),
                }
            }
            // Ascending shard order, as `fan_out` requires.
            groups.sort_by_key(|(shard, _)| shard.index);
            let results = fan_out(
                groups.iter().map(|(shard, group)| (shard, group)),
                |remote, group| {
                    let batch = group.iter().map(|(_, t)| t.clone()).collect();
                    remote.begin_write_all_leased(batch, lease)
                },
            );
            let outcomes: Vec<_> = groups.into_iter().map(|(_, g)| g).zip(results).collect();
            for (group, result) in outcomes {
                match result {
                    Ok(batch_ids) => {
                        for ((pos, _), id) in group.iter().zip(batch_ids) {
                            ids[*pos] = Some(id);
                        }
                    }
                    Err(e @ SpaceError::Transport(_)) | Err(e @ SpaceError::Protocol(_)) => {
                        // The shard is struck out; re-queue for reroute.
                        last_err = e;
                        pending.extend(group);
                    }
                    Err(SpaceError::Closed) => {
                        self.closed.store(true, Ordering::SeqCst);
                        return Err(SpaceError::Closed);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        if !pending.is_empty() {
            return Err(last_err);
        }
        Ok(ids
            .into_iter()
            .map(|id| id.expect("pending drained, every position written"))
            .collect())
    }

    /// Scatter batch take: a parallel quota sweep first; when it comes
    /// up dry and the caller is willing to wait, one blocking scatter
    /// take delivers the first match, then a final sweep drains whatever
    /// else arrived — mirroring the single-store contract (block for the
    /// first match, drain the rest without waiting).
    fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        self.ensure_open()?;
        if max == 0 {
            return Ok(Vec::new());
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        // Single-shard fast path: the one server already implements the
        // exact block-then-drain contract in one round trip (v2).
        if self.shards.len() == 1 && self.shards[0].is_healthy() {
            match self.shards[0].call(|r| r.take_up_to(template, max, timeout)) {
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        if let Some(shard) = self.route(template) {
            match shard.call(|r| r.take_up_to(template, max, timeout)) {
                Ok(batch) if !batch.is_empty() => return Ok(batch),
                // Empty routed batch: not authoritative under reroutes
                // by other clients — fall through to the quota sweep.
                Ok(_) => {}
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        let first_sweep = self.sweep_take_up_to(template, max)?;
        if !first_sweep.is_empty() {
            return Ok(first_sweep);
        }
        if timeout == Some(Duration::ZERO) {
            return Ok(first_sweep);
        }
        match self.scatter_blocking(template, deadline, true)? {
            None => Ok(Vec::new()),
            Some(first) => {
                let mut out = vec![first];
                if max > 1 {
                    out.extend(self.sweep_take_up_to(template, max - 1)?);
                }
                Ok(out)
            }
        }
    }

    /// One shard: forwarded, so the worker's refill stays the one
    /// exchange [`RemoteSpace`] makes of it — booked as one shard op,
    /// judged for health by the take's outcome (a transport failure
    /// fails both halves alike). More shards: results and tasks live on
    /// different ones in general, so the pair has nothing to share and
    /// runs as the two calls above, reroutes and scatter included.
    fn write_all_then_take_up_to(
        &self,
        tuples: Vec<Tuple>,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> WriteThenTake {
        if self.shards.len() != 1 || !self.shards[0].is_healthy() || self.ensure_open().is_err() {
            return write_all_then_take_up_to_in_sequence(self, tuples, template, max, timeout);
        }
        let shard = &self.shards[0];
        let start = Instant::now();
        let (written, taken) = shard
            .remote
            .write_all_then_take_up_to(tuples, template, max, timeout);
        if matches!(written, Err(SpaceError::Closed)) {
            self.closed.store(true, Ordering::SeqCst);
        }
        (written, shard.account(start, taken))
    }
}

impl Drop for PartitionedSpace {
    fn drop(&mut self) {
        if let Some((stop, thread)) = self.prober.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_tuplespace::{Space, SpaceHandle, SpaceServer};

    struct Rig {
        spaces: Vec<SpaceHandle>,
        servers: Vec<SpaceServer>,
        grid: PartitionedSpace,
    }

    fn rig(shards: usize) -> Rig {
        rig_with(shards, GridConfig::default())
    }

    fn rig_with(shards: usize, config: GridConfig) -> Rig {
        let mut spaces = Vec::new();
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..shards {
            let space = Space::new(format!("shard-{i}"));
            let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
            addrs.push(server.addr());
            spaces.push(space);
            servers.push(server);
        }
        let grid = PartitionedSpace::connect_with(&addrs, config).unwrap();
        Rig {
            spaces,
            servers,
            grid,
        }
    }

    fn task(id: i64) -> Tuple {
        Tuple::build("acc.task")
            .field("job", "grid")
            .field("task_id", id)
            .done()
    }

    fn job_template() -> Template {
        Template::build("acc.task").eq("job", "grid").done()
    }

    #[test]
    fn writes_spread_and_scatter_take_finds_everything() {
        let r = rig(4);
        for i in 0..64 {
            r.grid.write(task(i)).unwrap();
        }
        let spread: Vec<usize> = r.spaces.iter().map(|s| s.len()).collect();
        assert_eq!(spread.iter().sum::<usize>(), 64);
        assert!(
            spread.iter().all(|&n| n > 0),
            "all shards should hold tuples: {spread:?}"
        );
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let t = r
                .grid
                .take(&job_template(), Some(Duration::from_secs(2)))
                .unwrap()
                .expect("tuple available");
            seen.insert(t.get_int("task_id").unwrap());
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(r.grid.count(&job_template()).unwrap(), 0);
    }

    #[test]
    fn refill_pair_writes_then_takes_on_one_shard_and_on_several() {
        let result = |id: i64| Tuple::build("acc.result").field("task_id", id).done();
        for shards in [1, 3] {
            let r = rig(shards);
            r.grid.write_all((0..10).map(task).collect()).unwrap();
            let (written, taken) = r.grid.write_all_then_take_up_to(
                (0..4).map(result).collect(),
                &job_template(),
                4,
                Some(Duration::from_secs(2)),
            );
            assert_eq!(written.unwrap().len(), 4, "{shards} shard(s)");
            assert_eq!(taken.unwrap().len(), 4, "{shards} shard(s)");
            assert_eq!(r.grid.count(&job_template()).unwrap(), 6);
            assert_eq!(r.grid.count(&Template::of_type("acc.result")).unwrap(), 4);
            // A closed grid fails both halves.
            r.grid.close();
            let (written, taken) =
                r.grid
                    .write_all_then_take_up_to(vec![result(9)], &job_template(), 4, None);
            assert_eq!(written, Err(SpaceError::Closed), "{shards} shard(s)");
            // (Forwarded, the take fails too; in sequence it is skipped.)
            assert!(taken.is_err() || taken == Ok(Vec::new()), "{taken:?}");
        }
    }

    #[test]
    fn batch_write_and_batch_take_round_trip() {
        let r = rig(3);
        let ids = r.grid.write_all((0..100).map(task).collect()).unwrap();
        assert_eq!(ids.len(), 100);
        assert_eq!(r.grid.count(&job_template()).unwrap(), 100);
        let mut got = Vec::new();
        while got.len() < 100 {
            let batch = r
                .grid
                .take_up_to(&job_template(), 7, Some(Duration::from_secs(2)))
                .unwrap();
            assert!(!batch.is_empty());
            assert!(batch.len() <= 7);
            got.extend(batch);
        }
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn keyed_routing_serves_point_lookups_from_the_owner() {
        let config = GridConfig {
            key_fields: vec!["job".into(), "task_id".into()],
            ..GridConfig::default()
        };
        let r = rig_with(4, config);
        for i in 0..32 {
            r.grid.write(task(i)).unwrap();
        }
        for i in 0..32i64 {
            let point = Template::build("acc.task")
                .eq("job", "grid")
                .eq("task_id", i)
                .done();
            let owner = route_tuple(&task(i), &["job".into(), "task_id".into()], 4);
            // The owner shard really holds it...
            assert_eq!(Space::count(&r.spaces[owner], &point), 1);
            // ...and the grid finds it (routed, not scattered).
            let got = r.grid.read_if_exists(&point).unwrap().unwrap();
            assert_eq!(got.get_int("task_id"), Some(i));
        }
    }

    #[test]
    fn blocking_take_wakes_on_late_write() {
        let r = rig(2);
        let grid = Arc::new(r.grid);
        let waiter = {
            let grid = grid.clone();
            std::thread::spawn(move || grid.take(&job_template(), Some(Duration::from_secs(5))))
        };
        std::thread::sleep(Duration::from_millis(60));
        // Write directly into a shard: the scatter helpers must see it.
        r.spaces[1].write(task(9)).unwrap();
        let got = waiter.join().unwrap().unwrap().expect("tuple delivered");
        assert_eq!(got.get_int("task_id"), Some(9));
    }

    #[test]
    fn blocking_take_times_out_empty() {
        let r = rig(2);
        let t0 = Instant::now();
        let got = r
            .grid
            .take(&job_template(), Some(Duration::from_millis(80)))
            .unwrap();
        assert!(got.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn dead_shard_degrades_writes_and_reads() {
        let mut r = rig(3);
        for i in 0..30 {
            r.grid.write(task(i)).unwrap();
        }
        // Kill shard 1 outright: server gone, connections reset.
        let dead = 1;
        let held = r.spaces[dead].len();
        drop(r.servers.remove(dead));
        // Writes keep landing (rerouted); the grid stays usable.
        for i in 30..60 {
            r.grid.write(task(i)).unwrap();
        }
        assert_eq!(r.grid.healthy_count(), 2);
        let view = r.grid.to_json();
        assert_eq!(
            view["shards"][dead]["healthy"],
            acc_telemetry::Json::Bool(false)
        );
        // Scatter reads cover the surviving shards.
        let visible = r.grid.count(&job_template()).unwrap();
        assert_eq!(visible, 60 - held);
        let drained = r.grid.take_all(&job_template()).unwrap();
        assert_eq!(drained.len(), visible);
    }

    #[test]
    fn recovered_shard_rejoins_via_the_prober() {
        let config = GridConfig {
            reprobe_interval: Duration::from_millis(20),
            ..GridConfig::default()
        };
        let mut r = rig_with(2, config);
        // Take shard 0 down and let the grid notice.
        let addr0 = r.servers[0].addr();
        let space0 = r.spaces[0].clone();
        drop(r.servers.remove(0));
        while r.grid.write(task(0)).is_ok() && r.grid.healthy_count() == 2 {}
        assert_eq!(r.grid.healthy_count(), 1);
        // Bring a server back on the same address.
        let _revived = SpaceServer::spawn(space0, &addr0.to_string()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.grid.healthy_count() < 2 {
            assert!(Instant::now() < deadline, "prober never readmitted shard 0");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn publishing_twice_leaves_one_lookup_entry() {
        let r = rig(3);
        r.grid.publish().unwrap();
        r.grid.publish().unwrap();
        let lookup = Template::of_type(LOOKUP_TYPE);
        let held: Vec<usize> = r.spaces.iter().map(|s| s.count(&lookup)).collect();
        assert_eq!(held, [1, 0, 0]);
    }

    #[test]
    fn discover_connects_every_shard_in_order_from_shard_0() {
        let r = rig(4);
        r.grid.publish().unwrap();
        let found = PartitionedSpace::discover(r.servers[0].addr()).unwrap();
        assert_eq!(found.addrs(), r.grid.addrs());
        // The discovered client and the publisher share one grid.
        found.write_all((0..16).map(task).collect()).unwrap();
        assert_eq!(r.grid.count(&job_template()).unwrap(), 16);
    }

    #[test]
    fn discover_without_a_lookup_entry_names_the_address() {
        let r = rig(2);
        let addr = r.servers[1].addr();
        let err = PartitionedSpace::discover(addr).unwrap_err();
        assert!(err.to_string().contains(&addr.to_string()), "{err}");
    }

    #[test]
    fn close_propagates_to_every_shard() {
        let r = rig(3);
        r.grid.write(task(1)).unwrap();
        r.grid.close();
        assert!(r.grid.is_closed());
        assert!(matches!(r.grid.write(task(2)), Err(SpaceError::Closed)));
        for space in &r.spaces {
            assert!(space.is_closed());
        }
    }

    #[test]
    fn all_shards_dead_is_a_transport_error() {
        let r = rig(2);
        drop(r.servers);
        let mut saw_transport = false;
        for i in 0..4 {
            if let Err(SpaceError::Transport(_)) = r.grid.write(task(i)) {
                saw_transport = true;
                break;
            }
        }
        assert!(
            saw_transport,
            "grid must surface Transport once all shards die"
        );
        assert!(matches!(
            r.grid
                .take(&job_template(), Some(Duration::from_millis(50))),
            Err(SpaceError::Transport(_))
        ));
    }

    /// A reroute performed by one client must not make keyed tuples
    /// invisible to *other* clients' routed lookups: the routed miss
    /// has to fall back to a scatter (and `count` must always sum over
    /// all shards).
    #[test]
    fn foreign_reroute_does_not_hide_keyed_tuples_from_other_clients() {
        let keys: Vec<String> = vec!["job".into(), "task_id".into()];
        let config = GridConfig {
            key_fields: keys.clone(),
            ..GridConfig::default()
        };
        let mut r = rig_with(2, config.clone());
        // A tuple owned by shard 0.
        let id = (0..)
            .find(|&i| route_tuple(&task(i), &keys, 2) == 0)
            .unwrap();
        // Kill the owner; writer client A strikes it out and reroutes
        // the write onto shard 1.
        let addr0 = r.servers[0].addr();
        let space0 = r.spaces[0].clone();
        drop(r.servers.remove(0));
        r.grid.write(task(id)).unwrap();
        assert_eq!(r.spaces[1].len(), 1, "write must land on the survivor");
        // The owner comes back (empty); a fresh client B connects with
        // no knowledge of A's reroute, so its template routing still
        // points at shard 0.
        let _revived = SpaceServer::spawn(space0, &addr0.to_string()).unwrap();
        let b = PartitionedSpace::connect_with(&r.grid.addrs(), config).unwrap();
        let point = Template::build("acc.task")
            .eq("job", "grid")
            .eq("task_id", id)
            .done();
        assert_eq!(b.count(&point).unwrap(), 1, "count must sum all shards");
        let read = b.read_if_exists(&point).unwrap();
        assert_eq!(
            read.and_then(|t| t.get_int("task_id")),
            Some(id),
            "routed miss must fall back to scatter"
        );
        let taken = b.take(&point, Some(Duration::from_millis(200))).unwrap();
        assert_eq!(taken.and_then(|t| t.get_int("task_id")), Some(id));
    }

    /// Conservation canary for the first-wins races: takes racing a
    /// writer under very short timeouts and slices must never lose a
    /// tuple — a gatherer that times out while a helper's win is in
    /// flight has to restore that straggler, and losing helpers have to
    /// restore theirs.
    #[test]
    fn short_timeout_takes_never_lose_tuples() {
        let config = GridConfig {
            take_slice: Duration::from_millis(2),
            ..GridConfig::default()
        };
        let r = rig_with(2, config);
        let total = 120i64;
        let writer_grid = r.grid.reconnect().unwrap();
        let writer = std::thread::spawn(move || {
            for i in 0..total {
                writer_grid.write(task(i)).unwrap();
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let mut got = 0i64;
        let stop = Instant::now() + Duration::from_secs(20);
        while got < total && Instant::now() < stop {
            if r.grid
                .take(&job_template(), Some(Duration::from_millis(3)))
                .unwrap()
                .is_some()
            {
                got += 1;
            }
        }
        writer.join().unwrap();
        // Whatever the takes missed must still be in the space. Loser
        // restores may land up to a slice after a take returns, so poll
        // instead of asserting a single snapshot.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let leftover = r.grid.count(&job_template()).unwrap() as i64;
            if got + leftover == total {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "tuples lost: took {got}, {leftover} left of {total}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn write_all_survives_a_shard_dying_between_batches() {
        let mut r = rig(3);
        r.grid.write_all((0..30).map(task).collect()).unwrap();
        drop(r.servers.remove(2));
        // The next batch hits the dead shard, strikes it out, reroutes,
        // and still reports an id per tuple.
        let ids = r.grid.write_all((30..60).map(task).collect()).unwrap();
        assert_eq!(ids.len(), 30);
        assert_eq!(r.grid.healthy_count(), 2);
        // Everything written after the death is reachable.
        let visible = r.grid.count(&job_template()).unwrap();
        assert!(visible >= 30, "rerouted writes must be readable: {visible}");
    }
}
