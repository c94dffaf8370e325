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
//! * **Placement**: a write goes to the next healthy shard from a
//!   rotating cursor, so a batch splits evenly over the healthy shards,
//!   and a refill puts its results on its home shard. Templates bind only
//!   the job in the master–worker loop, so no lookup can name one shard:
//!   every lookup over several shards sweeps them all.
//! * **Scatter-gather**: non-blocking lookups sweep the healthy shards;
//!   blocking `read`/`take` alternate a sweep with one blocking slice on
//!   one shard, from the calling thread. Only one take is ever out, so a
//!   take removes nothing but the tuple it returns.
//! * **Batching**: a batch operation is one split-phase sweep from the
//!   calling thread — every shard's request frames go out on its own
//!   connection before the first response is read, so the shards work
//!   concurrently and no helper thread is spawned. `write_all` splits
//!   the batch over the healthy shards, `take_up_to` splits `max` into
//!   per-shard quotas, and the worker's refill (`take_batch`) sends its
//!   results and its whole take to its home shard as one pipelined pair.
//!   Over several shards a batch is taken bare; over one it is forwarded,
//!   so it stays the shard server's transaction. A take that comes back short asks the shards not seen
//!   exhausted for the rest until it is full or every shard is seen
//!   exhausted. `take_all` drains the same way.
//! * **Degradation**: a shard whose connection keeps failing (after
//!   [`RemoteSpace`]'s own reconnect-and-retry) is marked unhealthy:
//!   writes that failed on it are redone on the healthy shards,
//!   scatters skip it, and a background prober readmits it when it
//!   answers again. One dead shard degrades the grid instead of killing
//!   the cluster.
//! * **Lookup**: [`PartitionedSpace::publish`] keeps the shard list as
//!   one entry in shard 0, and [`PartitionedSpace::discover`] reads it
//!   back, so a client process needs shard 0's address alone — the
//!   paper's Jini lookup, as template matching in the space itself.
//!
//! Telemetry: per-shard op latency (`grid.shard<i>.op_us`), scatter
//! fan-out width (`grid.scatter.fanout`) and writes redone on another
//! shard after theirs failed (`grid.rerouted_writes`). Shard health is in
//! [`PartitionedSpace::to_json`].

#![warn(missing_docs)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_tuplespace::{
    Batch, BatchTxn, EntryId, Lease, Pending, RemoteSpace, SpaceError, SpaceResult, Template,
    Tuple, TupleStore, Value,
};

/// Both outcomes of a shard's exchange in a sweep: the write's ids and
/// the take's tuples.
type Outcome = (SpaceResult<Vec<EntryId>>, SpaceResult<Vec<Tuple>>);

/// Tunables for a [`PartitionedSpace`].
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// How often the background prober retries unhealthy shards.
    pub reprobe_interval: Duration,
}

impl Default for GridConfig {
    fn default() -> GridConfig {
        GridConfig {
            reprobe_interval: Duration::from_millis(250),
        }
    }
}

/// The first slice of a blocking lookup's wait on one shard; each later
/// slice doubles, up to [`SLICE_CAP`].
const FIRST_SLICE: Duration = Duration::from_millis(1);

/// The longest slice a blocking lookup waits on one shard, and so the
/// longest a match written to another shard goes unseen.
const SLICE_CAP: Duration = Duration::from_millis(25);

/// Grid-wide telemetry series (see the crate docs for the name list).
struct GridSeries {
    rerouted_writes: Arc<acc_telemetry::Counter>,
    scatter_fanout: Arc<acc_telemetry::Histogram>,
}

fn series() -> &'static GridSeries {
    static SERIES: std::sync::OnceLock<GridSeries> = std::sync::OnceLock::new();
    SERIES.get_or_init(|| {
        let r = acc_telemetry::registry();
        GridSeries {
            rerouted_writes: r.counter("grid.rerouted_writes"),
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

/// Seeds each client's home shard (see [`PartitionedSpace::home`]), so the
/// master and each reconnected worker start on different shards.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

/// One shard of the grid: a [`RemoteSpace`] connection plus its health
/// mark. The health mark is per *client* (each grid instance judges its
/// own connections): a shard this client cannot reach must be written
/// around by this client, whatever other clients see.
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

/// One shard's request in a [`fan_out`], on the wire: its results and its
/// take as one pipelined pair, or either alone.
enum Exchange<'a> {
    Pair(Pending<'a, Outcome>),
    Write(Pending<'a, Vec<EntryId>>),
    Take(Pending<'a, Vec<Tuple>>),
}

impl Exchange<'_> {
    /// Reads the answers; the half that was not asked comes back empty.
    fn finish(self) -> SpaceResult<Outcome> {
        match self {
            Exchange::Pair(pending) => pending.finish(),
            Exchange::Write(pending) => pending.finish().map(|ids| (Ok(ids), Ok(Vec::new()))),
            Exchange::Take(pending) => pending.finish().map(|taken| (Ok(Vec::new()), Ok(taken))),
        }
    }
}

/// Split-phase fan-out over several shards, on the calling thread: `begin`
/// puts each shard's exchange on the wire, and only when all of them are
/// out are the responses collected — the shards work concurrently and the
/// caller pays about one round trip, with no helper thread to spawn and
/// join. Every exchange is one op to [`Shard::account`], so health strikes
/// and the per-shard histograms see it exactly as they see
/// [`Shard::call`]; one that fails as a whole fails both its halves.
///
/// `targets` must be in ascending shard order. A [`Pending`] holds its
/// connection's lock, so this holds several at once; a fixed acquisition
/// order is what keeps two threads sharing one grid client (the master and
/// its metrics collector, say) from deadlocking on them.
fn fan_out<'a, X>(
    targets: impl IntoIterator<Item = (&'a Arc<Shard>, X)>,
    mut begin: impl FnMut(&'a RemoteSpace, X) -> Exchange<'a>,
) -> Vec<Outcome> {
    let sent: Vec<_> = targets
        .into_iter()
        .map(|(shard, arg)| (shard, Instant::now(), begin(&shard.remote, arg)))
        .collect();
    sent.into_iter()
        .map(|(shard, start, exchange)| {
            shard
                .account(start, exchange.finish())
                .unwrap_or_else(|e| (Err(e.clone()), Err(e)))
        })
        .collect()
}

/// The blocking half of a batch take whose sweep came up dry: `wait` for a
/// first match, then `drain` up to `max - 1` more without waiting. The
/// first tuple has left its shard by the time the drain runs, so a drain
/// that fails (no shard healthy any more, say) still hands it back; a
/// `Closed` it met is latched for the next call.
fn block_then_drain(
    max: usize,
    wait: impl FnOnce() -> SpaceResult<Option<Tuple>>,
    drain: impl FnOnce(usize) -> SpaceResult<Vec<Tuple>>,
) -> SpaceResult<Vec<Tuple>> {
    let Some(first) = wait()? else {
        return Ok(Vec::new());
    };
    let mut out = vec![first];
    if max > 1 {
        out.extend(drain(max - 1).unwrap_or_default());
    }
    Ok(out)
}

/// A partitioned tuple space: the full [`TupleStore`] contract over N
/// [`RemoteSpace`] shards. See the crate docs for the placement,
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
    /// Rotates the starting shard of scatter sweeps so repeated
    /// non-blocking lookups don't always favour shard 0.
    sweep_cursor: AtomicUsize,
    /// Rotates writes over the healthy shards (see
    /// [`write_target`](Self::write_target)).
    write_cursor: AtomicUsize,
    /// Where this client's refills put their results and ask their
    /// take: the first healthy shard from this index. It moves to the next
    /// shard when the home answers a take short.
    home: AtomicUsize,
    /// The shard that last answered this client's single-tuple take or
    /// read with a match (see [`waited`](Self::waited)).
    waited: AtomicUsize,
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
        let home = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
        Ok(PartitionedSpace {
            shards,
            config,
            closed: AtomicBool::new(false),
            sweep_cursor: AtomicUsize::new(0),
            write_cursor: AtomicUsize::new(0),
            home: AtomicUsize::new(home),
            waited: AtomicUsize::new(home),
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

    /// The shard addresses, in shard order.
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
    /// health in shard order, plus the reroute counters.
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
            ("shards", shards.collect()),
        ])
    }

    /// A fresh grid client over the same shards and tunables — each
    /// worker gets its own connections, as with [`RemoteSpace`], and its
    /// own home shard.
    pub fn reconnect(&self) -> std::io::Result<PartitionedSpace> {
        PartitionedSpace::connect_with(&self.addrs(), self.config.clone())
    }

    /// Publishes the grid's lookup entry: one [`LOOKUP_TYPE`] tuple in
    /// shard 0 whose `shards` field lists every shard address in shard
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

    /// The shard the next write goes to: the next healthy shard from the
    /// rotating write cursor, counted over the healthy shards alone, so
    /// consecutive writes — a batch's above all — split evenly over them.
    fn write_target(&self) -> SpaceResult<Arc<Shard>> {
        let healthy = || self.shards.iter().filter(|s| s.is_healthy());
        let k = self.write_cursor.fetch_add(1, Ordering::Relaxed) % healthy().count().max(1);
        // A shard struck out between the count and the pick: take the first.
        healthy()
            .nth(k)
            .or_else(|| healthy().next())
            .cloned()
            .ok_or_else(PartitionedSpace::no_healthy)
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
                Ok(Some(tuple)) => {
                    self.matched(shard);
                    return Ok(Some(tuple));
                }
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

    /// A blocking lookup over several shards, on the calling thread: each
    /// pass sweeps the healthy shards without blocking and, if nothing
    /// matched, blocks on the [waited](Self::waited) shard for one slice.
    /// Slices start at [`FIRST_SLICE`] and double up to [`SLICE_CAP`], cut
    /// to the deadline. A match written to the waited shard wakes the call
    /// at once, and one written anywhere else is found by the next sweep,
    /// within a slice. Only one lookup is ever out, so a take removes only
    /// the tuple it returns and nothing is written back.
    ///
    /// `swept` skips the first sweep, for a caller whose own sweep has
    /// just come up dry. Without it a zero timeout (the `*_if_exists`
    /// contract) still gets one full sweep.
    fn sliced_wait(
        &self,
        template: &Template,
        deadline: Option<Instant>,
        destructive: bool,
        mut swept: bool,
    ) -> SpaceResult<Option<Tuple>> {
        let mut slice = FIRST_SLICE;
        loop {
            self.ensure_open()?;
            if !std::mem::take(&mut swept) {
                if let Some(tuple) = self.sweep_one(template, destructive)? {
                    return Ok(Some(tuple));
                }
            }
            let wait = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => slice,
                Some(left) if left.is_zero() => return Ok(None),
                Some(left) => left.min(slice),
            };
            let shard = self.waited()?;
            let got = shard.call(|r| {
                if destructive {
                    r.take(template, Some(wait))
                } else {
                    r.read(template, Some(wait))
                }
            });
            match got {
                Ok(Some(tuple)) => {
                    self.matched(&shard);
                    return Ok(Some(tuple));
                }
                Ok(None) => {}
                Err(SpaceError::Closed) => {
                    self.closed.store(true, Ordering::SeqCst);
                    return Err(SpaceError::Closed);
                }
                // `call` struck the shard out: the next pass waits on another.
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                Err(e) => return Err(e),
            }
            slice = (slice * 2).min(SLICE_CAP);
        }
    }

    /// The first healthy shard from the index `from` holds.
    fn first_healthy(&self, from: &AtomicUsize) -> SpaceResult<Arc<Shard>> {
        let n = self.shards.len();
        let start = from.load(Ordering::Relaxed);
        (0..n)
            .map(|k| &self.shards[(start + k) % n])
            .find(|shard| shard.is_healthy())
            .cloned()
            .ok_or_else(PartitionedSpace::no_healthy)
    }

    /// This client's home shard: the first healthy shard from the `home`
    /// index. A refill that carries results puts them there and asks it
    /// for its whole take, so in the steady state a task and its result
    /// share one shard and a refill is one exchange.
    fn home(&self) -> SpaceResult<Arc<Shard>> {
        self.first_healthy(&self.home)
    }

    /// The shard a [`sliced_wait`](Self::sliced_wait) blocks on: the first
    /// healthy shard from the one that last answered one of this client's
    /// single-tuple lookups with a match, which starts as its home.
    ///
    /// Batch takes do not move it. A dry worker waits for tasks that a
    /// master's `write_all` lands on the shards one after another, in
    /// shard order; the sweep after a missed slice finds them on the
    /// shard they reach first, and the next wait sits there. A refill's
    /// batch answers, mostly from its home, would move the wait back off
    /// it (twice the missed slices in `grid4_job`).
    fn waited(&self) -> SpaceResult<Arc<Shard>> {
        self.first_healthy(&self.waited)
    }

    /// Notes that `shard` answered a single-tuple take or read with a
    /// match.
    fn matched(&self, shard: &Shard) {
        self.waited.store(shard.index, Ordering::Relaxed);
    }

    /// Splits a take of `max` over the shards `over` into quotas, indexed
    /// by shard, with the remainder rotating, for fairness. The quotas sum
    /// to `max`, so a sweep never overfetches and nothing needs restoring.
    fn quotas(&self, max: usize, over: &[Arc<Shard>]) -> SpaceResult<Vec<usize>> {
        let n = over.len();
        if n == 0 {
            return Err(PartitionedSpace::no_healthy());
        }
        if n > 1 {
            series().scatter_fanout.observe(n as u64);
        }
        let start = self.sweep_cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut quotas = vec![0; self.shards.len()];
        for (i, shard) in over.iter().enumerate() {
            quotas[shard.index] = max / n + usize::from((i + n - start) % n < max % n);
        }
        Ok(quotas)
    }

    /// One non-blocking sweep, which every multi-shard batch operation is
    /// made of: `tuples` grouped by [`write_target`](Self::write_target) —
    /// or, `to_home`, all on the [home](Self::home) — plus
    /// `take`'s per-shard quotas. Each shard touched gets one exchange — a
    /// pipelined pair where it has both, no `TakeUpTo` where its quota is
    /// 0 — and all of them go out in one [`fan_out`]. Ids come back in
    /// input order.
    ///
    /// A take that comes back short asks for the rest in the next round,
    /// of the healthy shards not seen exhausted (answering less than they
    /// were asked), and keeps asking until it is full or every shard is
    /// seen exhausted; a home that answered short moves to the next shard.
    /// A group whose shard fails is struck out and redone in a further
    /// round — on the healthy shards, counted as rerouted, or on the next
    /// home; as with [`RemoteSpace`], the retry makes batch writes
    /// at-least-once. Tuples taken are returned whatever became of the
    /// write, and a take error surfaces only when nothing was taken.
    /// `Closed` latches.
    fn sweep(
        &self,
        tuples: Vec<Tuple>,
        lease: Lease,
        to_home: bool,
        take: Option<(&Template, Vec<usize>)>,
    ) -> Outcome {
        let n = self.shards.len();
        let (template, mut quotas) = match take {
            Some((template, quotas)) => (Some(template), quotas),
            None => (None, vec![0; n]),
        };
        let max: usize = quotas.iter().sum();
        let mut exhausted = vec![false; n];
        let mut ids: Vec<Option<EntryId>> = vec![None; tuples.len()];
        // (input position, tuple) pairs still to be written.
        let mut pending: Vec<(usize, Tuple)> = tuples.into_iter().enumerate().collect();
        let mut taken = Vec::new();
        let (mut write_err, mut take_err) = (None, None);
        let mut last_fault = PartitionedSpace::no_healthy();
        // A round after the first carries a top-up, a rewrite of what a
        // failed round struck out, or both. A short round exhausts at
        // least one more shard, and a failed one strikes one out, so
        // `n + 1` rounds guarantee termination.
        for round in 0..=n {
            let mut groups = vec![Vec::new(); n];
            // No home means no healthy shard: `write_target` reports that.
            let home = to_home.then(|| self.home().ok()).flatten();
            for (pos, tuple) in pending.drain(..) {
                let target = match &home {
                    Some(home) => Ok(home.clone()),
                    None => self.write_target(),
                };
                match target {
                    Ok(target) => groups[target.index].push((pos, tuple)),
                    Err(e) => return (Err(e), Ok(taken)),
                }
            }
            // Shard order, as `fan_out` requires.
            let parts: Vec<_> = self
                .shards
                .iter()
                .zip(groups)
                .zip(quotas.iter_mut().map(std::mem::take))
                .filter(|((_, group), quota)| !group.is_empty() || *quota > 0)
                .collect();
            if parts.is_empty() {
                break;
            }
            let results = fan_out(
                parts
                    .iter()
                    .map(|((shard, group), quota)| (*shard, (group, *quota))),
                |remote, (group, quota): (&Vec<(usize, Tuple)>, usize)| {
                    let batch: Vec<Tuple> = group.iter().map(|(_, t)| t.clone()).collect();
                    match template.filter(|_| quota > 0) {
                        None => Exchange::Write(remote.begin_write_all_leased(batch, lease)),
                        Some(t) if batch.is_empty() => {
                            Exchange::Take(remote.begin_take_up_to(t, quota))
                        }
                        Some(t) => {
                            debug_assert_eq!(lease, Lease::Forever, "a pair writes forever");
                            Exchange::Pair(remote.begin_refill(
                                batch,
                                t,
                                quota,
                                Some(Duration::ZERO),
                            ))
                        }
                    }
                },
            );
            for (((shard, group), quota), (written, took)) in parts.into_iter().zip(results) {
                if !group.is_empty() {
                    match written {
                        Ok(batch_ids) => {
                            // Only a failed group's tuples are written after
                            // round 0; a refill's follow its home, uncounted.
                            if round > 0 && home.is_none() {
                                series().rerouted_writes.add(group.len() as u64);
                            }
                            for ((pos, _), id) in group.iter().zip(batch_ids) {
                                ids[*pos] = Some(id);
                            }
                        }
                        Err(e @ SpaceError::Transport(_)) | Err(e @ SpaceError::Protocol(_)) => {
                            last_fault = e;
                            pending.extend(group);
                        }
                        Err(e) => write_err = Some(e),
                    }
                }
                if quota > 0 {
                    exhausted[shard.index] = !matches!(&took, Ok(batch) if batch.len() == quota);
                    match took {
                        Ok(batch) => taken.extend(batch),
                        Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                        Err(e) => take_err = Some(e),
                    }
                }
            }
            if write_err.is_some() {
                break;
            }
            if take_err.is_none() && taken.len() < max {
                if let Some(home) = home.filter(|home| round == 0 && exhausted[home.index]) {
                    self.home.store(home.index + 1, Ordering::Relaxed);
                }
                let rest: Vec<_> = self
                    .healthy()
                    .into_iter()
                    .filter(|shard| !exhausted[shard.index])
                    .collect();
                if let Ok(top_up) = self.quotas(max - taken.len(), &rest) {
                    quotas = top_up;
                }
            }
        }
        if write_err == Some(SpaceError::Closed) || take_err == Some(SpaceError::Closed) {
            self.closed.store(true, Ordering::SeqCst);
        }
        let written = match write_err {
            Some(e) => Err(e),
            None if !pending.is_empty() => Err(last_fault),
            None => Ok(ids
                .into_iter()
                .map(|id| id.expect("pending drained, every position written"))
                .collect()),
        };
        let taken = match take_err {
            Some(e) if taken.is_empty() => Err(e),
            _ => Ok(taken),
        };
        (written, taken)
    }

    /// The multi-shard refill, and with no results the multi-shard
    /// `take_up_to`: one [`sweep`](Self::sweep) carrying the results and
    /// the take. The whole take goes to the home when the refill carries
    /// results, and is split over the healthy shards otherwise; a short
    /// answer is topped up in the sweep. If the take is still empty and
    /// the caller will wait, [`block_then_drain`] runs it through
    /// [`sliced_wait`](Self::sliced_wait), which skips its first sweep
    /// since this one has just come up dry — unless the write
    /// failed: then the caller gets the error and whatever was taken.
    fn refill(
        &self,
        tuples: Vec<Tuple>,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> Outcome {
        let deadline = timeout.map(|t| Instant::now() + t);
        let to_home = !tuples.is_empty();
        let over = if to_home {
            self.home().map(|home| vec![home])
        } else {
            Ok(self.healthy())
        };
        let quotas = match over.and_then(|over| self.quotas(max, &over)) {
            Ok(quotas) => quotas,
            Err(e) => return (Err(e.clone()), Err(e)),
        };
        let (written, mut taken) =
            self.sweep(tuples, Lease::Forever, to_home, Some((template, quotas)));
        let dry = max > 0 && matches!(&taken, Ok(b) if b.is_empty());
        if dry && timeout != Some(Duration::ZERO) && written.is_ok() {
            taken = block_then_drain(
                max,
                || self.sliced_wait(template, deadline, true, true),
                |rest| {
                    self.refill(Vec::new(), template, rest, Some(Duration::ZERO))
                        .1
                },
            );
        }
        (written, taken)
    }
}

impl TupleStore for PartitionedSpace {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        self.ensure_open()?;
        // Each failed attempt strikes a shard out, and the write is redone
        // on another; `shards + 1` attempts guarantees termination.
        let mut last_err = PartitionedSpace::no_healthy();
        for attempt in 0..=self.shards.len() {
            let target = self.write_target()?;
            match target.call(|r| r.write_leased(tuple.clone(), lease)) {
                Err(e @ SpaceError::Transport(_)) | Err(e @ SpaceError::Protocol(_)) => {
                    last_err = e;
                }
                Ok(id) if attempt > 0 => {
                    series().rerouted_writes.inc();
                    return Ok(id);
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
        // wakes it on a matching write) instead of sliced waits.
        if self.shards.len() == 1 && self.shards[0].is_healthy() {
            match self.shards[0].call(|r| r.read(template, timeout)) {
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        self.sliced_wait(template, deadline, false, false)
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
        self.sliced_wait(template, deadline, true, false)
    }

    /// Sums over every healthy shard.
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

    /// Drains every healthy shard: rounds of
    /// split-phase batch takes over the shards that still had something
    /// last round, until every one has answered empty (or been struck).
    /// Struck shards degrade the result, not the caller; `Closed` latches
    /// and propagates.
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
                Exchange::Take(remote.begin_take_up_to(template, DRAIN_BATCH))
            });
            let mut had_more = results
                .iter()
                .map(|(_, took)| matches!(took, Ok(batch) if !batch.is_empty()));
            live.retain(|_| had_more.next().expect("one result per live shard"));
            for (_, took) in results {
                match took {
                    Ok(batch) => out.extend(batch),
                    Err(SpaceError::Closed) => {
                        self.closed.store(true, Ordering::SeqCst);
                        return Err(SpaceError::Closed);
                    }
                    Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(out)
    }

    /// One `sweep` that only writes: the batch split evenly over the
    /// healthy shards, each group riding its own connection's request
    /// frames (and their frame-budget chunking), groups on dead shards
    /// redone on the rest.
    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        self.ensure_open()?;
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        // Single-shard fast path: there is no other shard to redo on, so the
        // retry machinery of the sweep (which clones every tuple to be
        // able to regroup after a shard death) would be pure overhead.
        // Move the batch straight through.
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
        self.sweep(tuples, lease, false, None).0
    }

    /// One shard: forwarded, since the one server already implements the
    /// block-then-drain contract in one round trip. More shards: the
    /// refill with no results — a quota sweep topped up once if short,
    /// then, if it comes up dry and the caller is willing to wait, the
    /// sliced wait for the first match and a final sweep for whatever
    /// else arrived.
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
        if self.shards.len() == 1 && self.shards[0].is_healthy() {
            match self.shards[0].call(|r| r.take_up_to(template, max, timeout)) {
                Err(SpaceError::Transport(_)) | Err(SpaceError::Protocol(_)) => {}
                other => return other,
            }
        }
        self.refill(Vec::new(), template, max, timeout).1
    }

    /// One shard: forwarded, so the commit is that server's.
    fn commit_batch(&self, batch: Batch) -> SpaceResult<()> {
        self.ensure_open()?;
        match self.shards.as_slice() {
            [shard] => shard.call(|r| r.commit_batch(batch)),
            _ => match batch.tuples.is_empty() {
                true => Ok(()),
                false => self.write_all(batch.tuples).map(drop),
            },
        }
    }

    /// The worker's refill point, one exchange in the steady state. One
    /// shard: forwarded, so it stays the one exchange [`RemoteSpace`]
    /// makes of it, under that server's transactions — booked as one
    /// shard op, judged for health by the take's outcome (a transport
    /// failure fails both halves alike). More shards: taken bare, the
    /// results and the whole take going to the home shard as one
    /// pipelined pair, and the other shards asked only for what the home
    /// lacks (see `refill`).
    fn take_batch(
        &self,
        done: Batch,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> (SpaceResult<()>, SpaceResult<Batch>) {
        if let Err(e) = self.ensure_open() {
            return (Err(e.clone()), Err(e));
        }
        let [shard] = self.shards.as_slice() else {
            let (written, taken) = self.refill(done.tuples, template, max, timeout);
            let taken = taken.map(|tuples| Batch {
                txn: BatchTxn::default(),
                tuples,
            });
            return (written.map(drop), taken);
        };
        let start = Instant::now();
        let (committed, taken) = shard.remote.take_batch(done, template, max, timeout);
        if matches!(committed, Err(SpaceError::Closed)) {
            self.closed.store(true, Ordering::SeqCst);
        }
        (committed, shard.account(start, taken))
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
        let wait = Some(Duration::from_secs(2));
        for shards in [1, 3] {
            let r = rig(shards);
            r.grid.write_all((0..10).map(task).collect()).unwrap();
            let (committed, taken) = r
                .grid
                .take_batch(Batch::default(), &job_template(), 4, wait);
            assert_eq!(committed, Ok(()), "{shards} shard(s)");
            let mut batch = taken.unwrap();
            assert_eq!(batch.tuples.len(), 4, "{shards} shard(s)");
            assert_eq!(r.grid.count(&job_template()).unwrap(), 6);
            // The batch commits with its results as the next one is taken.
            batch.tuples = (0..4).map(result).collect();
            let (committed, taken) = r.grid.take_batch(batch, &job_template(), 4, wait);
            assert_eq!(committed, Ok(()), "{shards} shard(s)");
            assert_eq!(taken.unwrap().tuples.len(), 4, "{shards} shard(s)");
            assert_eq!(r.grid.count(&job_template()).unwrap(), 2);
            assert_eq!(r.grid.count(&Template::of_type("acc.result")).unwrap(), 4);
            // A closed grid fails both halves.
            r.grid.close();
            let done = Batch {
                txn: BatchTxn::default(),
                tuples: vec![result(9)],
            };
            let (committed, taken) = r.grid.take_batch(done, &job_template(), 4, None);
            assert_eq!(committed, Err(SpaceError::Closed), "{shards} shard(s)");
            assert_eq!(taken.map(|b| b.tuples), Err(SpaceError::Closed));
        }
    }

    #[test]
    fn refill_rewrites_a_dead_shards_results_and_takes_from_the_rest() {
        let mut r = rig(4);
        r.grid.write_all((0..64).map(task).collect()).unwrap();
        let dead = 2;
        drop(r.servers.remove(dead));
        let live = [0, 1, 3];
        assert!(live.iter().all(|&s| r.spaces[s].len() >= 2));
        let held = r.spaces[dead].len();
        // The whole refill goes to the home, which is dead: its pair fails,
        // and the next round rewrites the results and tops the take up.
        r.grid.home.store(dead, Ordering::Relaxed);
        let done = Batch {
            txn: BatchTxn::default(),
            tuples: (0..4)
                .map(|id| Tuple::build("acc.result").field("task_id", id).done())
                .collect(),
        };
        let (written, taken) =
            r.grid
                .take_batch(done, &job_template(), 8, Some(Duration::from_secs(2)));
        assert_eq!(written, Ok(()));
        assert_eq!(r.grid.count(&Template::of_type("acc.result")).unwrap(), 4);
        assert_eq!(
            taken.unwrap().tuples.len(),
            8,
            "the dead home's take, from the rest"
        );
        assert_eq!(r.grid.healthy_count(), 3);
        assert_eq!(r.spaces[dead].len(), held, "nothing left the dead shard");
        assert_eq!(r.grid.home().unwrap().index, 3, "the home moved on");
    }

    #[test]
    fn a_short_batch_take_tops_up_from_the_shards_that_had_more() {
        // Quotas of 2 and 2: the empty shard answers short, the full one
        // is asked for the rest.
        let r = rig(2);
        for i in 0..10 {
            r.spaces[1].write(task(i)).unwrap();
        }
        let taken = r
            .grid
            .take_up_to(&job_template(), 4, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(taken.len(), 4, "10 matches on one shard");
        // Quotas of 1 each over 1 / 0 / 0 / 5 matches: the first top-up
        // asks shards 0 and 3 for 1 each, shard 0 is then empty, and the
        // take asks shard 3 again.
        let r = rig(4);
        r.spaces[0].write(task(0)).unwrap();
        for i in 1..6 {
            r.spaces[3].write(task(i)).unwrap();
        }
        let taken = r
            .grid
            .take_up_to(&job_template(), 4, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(taken.len(), 4, "6 matches over shards 0 and 3");
        assert_eq!(r.grid.count(&job_template()).unwrap(), 2);
        // A failed shard's quota is asked of the live one.
        let mut r = rig(2);
        for i in 0..10 {
            r.spaces[0].write(task(i)).unwrap();
        }
        drop(r.servers.remove(1));
        let taken = r
            .grid
            .take_up_to(&job_template(), 4, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(taken.len(), 4, "10 matches on the live shard");
        assert_eq!(r.grid.healthy_count(), 1);
    }

    #[test]
    fn a_failed_drain_after_a_win_returns_the_tuple_already_taken() {
        let got = block_then_drain(
            4,
            || Ok(Some(task(1))),
            |rest| {
                assert_eq!(rest, 3);
                Err(PartitionedSpace::no_healthy())
            },
        );
        assert_eq!(got, Ok(vec![task(1)]));
        let timed_out = block_then_drain(4, || Ok(None), |_| unreachable!());
        assert_eq!(timed_out, Ok(Vec::new()));
        let failed = block_then_drain(4, || Err(SpaceError::Closed), |_| unreachable!());
        assert_eq!(failed, Err(SpaceError::Closed));
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
    fn blocking_take_wakes_on_late_write() {
        let r = rig(2);
        let grid = Arc::new(r.grid);
        let waiter = {
            let grid = grid.clone();
            std::thread::spawn(move || grid.take(&job_template(), Some(Duration::from_secs(5))))
        };
        std::thread::sleep(Duration::from_millis(60));
        // Write directly into a shard: the sliced wait must see it.
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

    /// Conservation canary: takes racing a writer under very short
    /// timeouts, each cut off mid-slice, must never lose a tuple.
    #[test]
    fn short_timeout_takes_never_lose_tuples() {
        let r = rig(2);
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
        // Whatever the takes missed must still be in the space: no take
        // is left out once the call returns, so one count settles it.
        let leftover = r.grid.count(&job_template()).unwrap() as i64;
        assert!(
            got + leftover == total,
            "tuples lost: took {got}, {leftover} left of {total}"
        );
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
