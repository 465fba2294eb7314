//! The serving engine (§5.1's *information service*, made concurrent).
//!
//! The paper's deployment story is an information server that answers
//! distance queries for arbitrary host pairs from low-rank coordinates.
//! Everything below `ides::service` computes those coordinates; this
//! module serves them under concurrency:
//!
//! * **One engine.** [`ShardedEngine`] is the serving type and the one
//!   place that routes ids, validates input and counts reads. Hosts are
//!   partitioned over `N` private single-writer shards — a constructor
//!   argument; `N = 1` is the classic single-writer deployment — that
//!   *share* the small global landmark model: the engine owns the one
//!   [`StreamingServer`](crate::streaming::StreamingServer) that
//!   maintains it, and every shard holds the same
//!   `Arc<`[`LandmarkModel`]`>`. Writes on different shards proceed
//!   concurrently, and a cross-shard estimate reads one coordinate row
//!   from each endpoint's pinned shard snapshot, lock-free (see
//!   [`shard`]).
//! * **Epoch-versioned snapshots.** Each shard publishes immutable
//!   [`Snapshot`]s — the shared [`LandmarkModel`] (factors plus cached
//!   join Grams, by `Arc`: a publish copies none of it, and a snapshot
//!   solves joins with the very factorizations the writer does) and the
//!   admitted-host coordinate table — through an
//!   [`arc_swap::ArcSwap`] cell. A query **pins** the cell for the length
//!   of one closure ([`arc_swap::ArcSwap::with`]): two atomic RMWs, no
//!   `Arc` clone and no lock a writer could hold, so queries never block
//!   on drift maintenance and never observe a torn epoch — a query runs
//!   start to finish against one consistent version, and a query issued
//!   after a publish returns sees that publish. Callers that want to
//!   keep a version take `Arc`s ([`ShardedEngine::snapshots`]).
//! * **One read path.** A served estimate is what the paper says it is
//!   (Eq. 10): pin, two row lookups, one `O(d)` dot product, through one
//!   private core (`ReadPath::serve` around `pair_estimate`) that also
//!   carries the per-query RMW budget; there is no estimate cache in
//!   front of it — at `d = 16` the dot costs less than a cache probe.
//! * **Chunk-tree publish.** The snapshot's coordinate table is a
//!   [`ChunkedRows`] — a persistent chunk tree whose clone is `O(1)` and
//!   whose row flags mark the live slots. Publishing after a join flush
//!   therefore costs `O(changed leaves)`: the writer copies the path to
//!   each row it writes and that row's 64-row leaf, so at a million
//!   admitted hosts a single-host churn publish copies ~100 `Arc` pointers
//!   and one 16 KiB leaf where the flat table used to copy hundreds of
//!   megabytes; a leave flips a flag and copies no leaf at all. Published
//!   snapshots stay immutable under the writer's copy-on-write mutations —
//!   and under a drift epoch, which rewrites every row and therefore
//!   installs each rejoined 256-slot tile as four *fresh* leaves
//!   ([`ChunkedRows::replace_chunk`]) instead of copying leaves it is
//!   about to overwrite whole.
//! * **Group commit.** Concurrent [`ShardedEngine::join`] calls append
//!   their rows to their shard's pending *generation*. The first joiner
//!   of a generation is its *leader*: it blocks on the shard's writer
//!   lock — not on a timer — and only once it holds the writer takes
//!   everything that is pending, solves it with **one** cached-Gram
//!   multi-RHS solve, publishes **once**, and hands each follower its
//!   slot. An idle writer therefore means an immediate batch of one (a
//!   join costs its solve plus its publish and nothing else), while
//!   joiners that arrive during a flush, a leave or a drift epoch pile up
//!   behind exactly one waiting leader and become the next batch: batch
//!   size tracks contention by construction, with no knob to tune.
//!   Because every output row of the batched join depends only on its own
//!   measurement row, admissions are **bit-identical** to one-at-a-time
//!   [`ShardedEngine::join_direct`] calls however they happened to batch.
//!   **Lock order** (an invariant): writer, then coalescer state, never
//!   the reverse — `join` releases the state lock before it blocks on the
//!   writer and re-takes it under the writer; `leave_many` and `stats`
//!   only ever hold one of the two.
//! * **Bulk admission.** [`ShardedEngine::join_many`] hands each shard
//!   its rows as one flush. Rows that find a retired slot overwrite it in
//!   place; the others append fresh slots — measurement rows copied once
//!   into room reserved once per flush, coordinates appended as whole
//!   leaves straight from each solved tile
//!   ([`ChunkedRows::extend_rows`]) — so admitting a batch costs its
//!   tiled solve plus one copy of each row, not a table growth step per
//!   host. A shard stores a host's measurements once when its out- and
//!   in-rows are bit-equal (round-trip times), and keeps a second table
//!   only from the first asymmetric row on.
//! * **Churn.** [`ShardedEngine::leave`] retires a host's row to a free
//!   list (the table never reallocates on leave; the slot is recycled by
//!   the next admission), and [`ShardedEngine::apply_epoch`] feeds drift
//!   into the engine's streaming server **once**, then has every shard
//!   re-join its admitted hosts against the updated model and publish —
//!   through the same tiled cached join every admission runs
//!   (`streaming::tile`): measurement rows read in place, one GEMM and
//!   two lane-blocked triangular solves per 256-host tile, nothing
//!   proportional to the table copied or allocated besides the new
//!   chunks.
//!
//! The [`replay`] submodule replays a deterministic
//! [`ides_netsim::workload`] event stream against an engine —
//! bit-identical answers and final coordinates at any thread or shard
//! count — and [`load`] drives wall-clock open/closed-loop load with
//! latency histograms ([`metrics::LatencyHistogram`]) for the `serve`
//! bench group and the `cli serve` command.

pub mod load;
pub mod metrics;
pub mod replay;
pub mod shard;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

use arc_swap::ArcSwap;
use ides_linalg::chunked::{ChunkedRows, CHUNK_ROWS};
use ides_linalg::Matrix;
use ides_mf::{DistanceEstimator, FactorModel};
use parking_lot::Mutex;

use crate::error::{IdesError, Result};
use crate::projection::BatchHostVectors;
use crate::streaming::{HostRows, LandmarkModel, TileScratch};
use crate::telemetry as tm;

pub use metrics::{LatencyHistogram, ServiceStats};
pub use shard::ShardedEngine;

/// An endpoint of a distance query: one of the `k` landmarks the engine
/// was built from, or an admitted ordinary host (the id returned by
/// [`ShardedEngine::join`]). Host ids are table slots: a departed host's
/// id is recycled by a later admission, and querying it in between
/// returns an error rather than a stale estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// Landmark index (`0 .. k`).
    Landmark(usize),
    /// Admitted-host slot, as returned by [`ShardedEngine::join`].
    Host(usize),
}

/// The serving engine's configuration. It has no knobs: admission
/// batching is group commit, sized by contention rather than by a setting
/// (see the [module docs](self)). The type remains as the argument
/// [`ShardedEngine::new`] takes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {}

/// One immutable, epoch-versioned view of the whole serving state: the
/// shared landmark model and the admitted-host coordinates. Queries
/// borrow it for one pinned closure; readers that keep a version hold it
/// as an `Arc` for as long as they like. The writer never mutates a
/// published snapshot.
///
/// The coordinate table is a persistent chunk tree ([`ChunkedRows`]):
/// each slot's row stores `[outgoing d | incoming d]` interleaved, and
/// the row's flag marks a live slot. Publishing clones the tree — `O(1)`,
/// and the writer then copies only the paths and leaves it touches,
/// independent of how many hosts are admitted.
#[derive(Debug)]
pub struct Snapshot {
    version: u64,
    epoch: f64,
    landmarks: Arc<LandmarkModel>,
    /// Slot-major rows of `2 * dim` columns: `[outgoing | incoming]`,
    /// flagged while the slot's host is live.
    coords: ChunkedRows<f64>,
    /// Live-row count, maintained by the writer (so [`Snapshot::host_count`]
    /// is O(1), not a scan).
    live_count: usize,
}

impl Snapshot {
    /// Monotonically increasing publish version (each join flush, leave,
    /// and drift epoch bumps it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The drift epoch of the landmark model at publish time.
    pub fn epoch(&self) -> f64 {
        self.epoch
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.model().n_from()
    }

    /// Model dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.model().dim()
    }

    /// Number of live admitted hosts.
    pub fn host_count(&self) -> usize {
        self.live_count
    }

    /// Number of host-table slots (live + retired).
    pub fn slot_count(&self) -> usize {
        self.coords.len()
    }

    /// The landmark factor model backing this snapshot.
    pub fn model(&self) -> &FactorModel {
        self.landmarks.factors()
    }

    /// The served landmark model — factors plus cached join Grams — this
    /// snapshot shares with its writer. [`LandmarkModel::join_batch`] on it
    /// gives tentative coordinates without admitting a host, bit-identical
    /// to the writer's own joins at the publish point.
    pub fn landmark_model(&self) -> &LandmarkModel {
        &self.landmarks
    }

    /// The admitted-host coordinate chunk tree (slot-major rows of
    /// `[outgoing dim | incoming dim]`, flagged while live; consult
    /// [`Snapshot::is_live`] before trusting a row). Exposed so tests can
    /// assert chunk sharing between consecutive publishes.
    pub fn coords(&self) -> &ChunkedRows<f64> {
        &self.coords
    }

    /// Host slot `s`'s outgoing coordinate vector (valid for any
    /// allocated slot; consult [`Snapshot::is_live`]).
    pub fn host_outgoing(&self, slot: usize) -> &[f64] {
        &self.coords.row(slot)[..self.dim()]
    }

    /// Host slot `s`'s incoming coordinate vector.
    pub fn host_incoming(&self, slot: usize) -> &[f64] {
        &self.coords.row(slot)[self.dim()..]
    }

    /// True when host slot `s` holds a live (admitted, not departed) host.
    pub fn is_live(&self, slot: usize) -> bool {
        self.coords.flagged_row(slot).is_some()
    }

    /// Endpoint `n`'s row: a landmark's `[outgoing | incoming]` pair, or a
    /// live host's coordinate row, liveness and cells read in one lookup.
    fn endpoint(&self, n: NodeId) -> Result<(&[f64], &[f64])> {
        let d = self.dim();
        let row = match n {
            NodeId::Landmark(i) if i < self.landmark_count() => {
                return Ok((self.model().outgoing(i), self.model().incoming(i)));
            }
            NodeId::Host(s) => self.coords.flagged_row(s),
            NodeId::Landmark(_) => None,
        };
        row.map(|row| row.split_at(d))
            .ok_or_else(|| unknown_node(n))
    }

    pub(crate) fn outgoing_of(&self, n: NodeId) -> Result<&[f64]> {
        Ok(self.endpoint(n)?.0)
    }

    pub(crate) fn incoming_of(&self, n: NodeId) -> Result<&[f64]> {
        Ok(self.endpoint(n)?.1)
    }

    /// Estimated distance from `a` to `b` (dot product of `a`'s outgoing
    /// and `b`'s incoming vector — Eq. 10). Pure: two queries against the
    /// same snapshot always return the same bits.
    pub fn estimate(&self, a: NodeId, b: NodeId) -> Result<f64> {
        pair_estimate(self, a, self, b)
    }
}

fn unknown_node(n: NodeId) -> IdesError {
    IdesError::InvalidInput(match n {
        NodeId::Landmark(i) => format!("unknown landmark {i}"),
        NodeId::Host(s) => format!("host slot {s} is not live"),
    })
}

/// The served estimate (Eq. 10): `a`'s outgoing row from the snapshot
/// holding it dotted with `b`'s incoming row from the snapshot holding
/// that — the only place a query's answer is computed. Ids are local to
/// their snapshot; a single engine passes the same snapshot twice.
#[inline]
fn pair_estimate(snap_a: &Snapshot, a: NodeId, snap_b: &Snapshot, b: NodeId) -> Result<f64> {
    Ok(FactorModel::dot(
        snap_a.outgoing_of(a)?,
        snap_b.incoming_of(b)?,
    ))
}

/// One in this many queries records a read-side telemetry span when
/// telemetry is enabled; every query still counts exactly via
/// [`ReadPath`]'s always-on counter, whose pre-increment value doubles as
/// the sampling tick (no thread-local or extra RMW on the hot path).
/// Keeps the two clock reads a span costs off the sub-100 ns query path
/// (the `telemetry_overhead` bench gates the residual at ≥ 0.9× disabled
/// throughput). A power of two.
const QUERY_SPAN_SAMPLING: u64 = 64;

/// True when a multiple of [`QUERY_SPAN_SAMPLING`] lies in `q .. q + n` —
/// for a single query (`n = 1`), when `q` itself is one.
#[inline]
fn covers_sampling_tick(q: u64, n: u64) -> bool {
    (q.wrapping_neg() & (QUERY_SPAN_SAMPLING - 1)) < n
}

/// The read path both engines serve through: the always-on `queries`
/// counter — alone on its cache line, since every reader thread RMWs it —
/// and the bookkeeping around one read call.
///
/// **RMW budget** (atomic read-modify-writes per call; no mutex, no
/// `Arc` clone and no allocation on any of them):
///
/// | call | RMWs |
/// |---|---|
/// | same-shard `estimate` | 3 — counter, pin, unpin |
/// | cross-shard `estimate` | 5 — counter, two pins, two unpins |
/// | `estimate_on` over caller-pinned snapshots | 1 — counter |
/// | `estimate_batch` of `n` pairs | 2·shards + 1 — one `fetch_add(n)`, each shard pinned once |
#[derive(Debug, Default)]
#[repr(align(64))]
struct ReadPath {
    queries: AtomicU64,
}

impl ReadPath {
    /// Queries counted so far.
    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Runs one read call answering `n` pair queries: counts them with
    /// one `fetch_add`, and — when telemetry is enabled and the call
    /// covers a sampling tick — records a [`tm::Stage::Query`] span
    /// around it. `read` does the pinning and calls [`pair_estimate`];
    /// the span is recorded after it returns, so nothing that locks
    /// ever runs under a snapshot pin (and the only allocation there is
    /// the message of a refused id).
    #[inline]
    fn serve<R>(&self, n: u64, read: impl FnOnce() -> Result<R>) -> Result<R> {
        let q = self.queries.fetch_add(n, Ordering::Relaxed);
        let t0 = (covers_sampling_tick(q, n) && tm::enabled()).then(tm::now_ns);
        let answer = read()?;
        if let Some(t0) = t0 {
            tm::record_at(tm::Stage::Query, t0);
        }
        Ok(answer)
    }
}

/// Mutable serving state, guarded by the writer lock. Queries never touch
/// this; joins, leaves, and rejoins serialize through it.
#[derive(Debug)]
struct WriterState {
    /// The landmark model this shard's coordinates were solved against,
    /// and the drift epoch it stands at: the engine's current one as of
    /// the shard's last [`Shard::rejoin_all`].
    model: Arc<LandmarkModel>,
    epoch: f64,
    hosts: HostTable,
    version: u64,
    /// Emptied buffers of the last coalesced flush, swapped for the
    /// pending generation's when a leader takes its batch: two pairs
    /// ping-pong, so steady-state joins allocate no staging.
    spare_out: Vec<f64>,
    spare_in: Vec<f64>,
    /// The flush's tile scratch, reused across flushes.
    tile: TileScratch,
}

/// The writer's slot-indexed host tables — apart from the model, so a
/// join can read the model while its tiles land here.
///
/// A slot is taken one of two ways, both in batch order (see
/// [`Shard::flush_locked`]): a retired slot is **reused** — its
/// measurement rows and its coordinate row overwritten in place, its flag
/// set — or the tables **grow**: a run of fresh slots `len .. len + m`
/// gets its measurement rows appended once, into room the flush reserved,
/// and its coordinates appended as whole leaves
/// ([`ChunkedRows::extend_rows`]).
///
/// **Measurement layout.** Round-trip times make a host's out- and
/// in-rows the same numbers, so the table keeps **one** measurement table
/// while every row it has stored is symmetric (`d_out` and `d_in`
/// bit-equal): `meas_in` is then absent and `meas_out` serves both
/// directions. The first asymmetric row — through [`HostTable::reuse_slot`]
/// or [`HostTable::append_slots`] alike — copies `meas_out` into a real
/// `meas_in` once ([`HostTable::meas_in_for`]), and the table keeps two
/// from then on. A join reads the same values either way, so the layout
/// never moves a coordinate bit.
#[derive(Debug)]
struct HostTable {
    /// Model dimensionality `d` (immutable; cached off the model).
    dim: usize,
    /// Per-slot measured distances to (`meas_out`) / from (`meas_in`) the
    /// landmarks — kept so a drift epoch can re-join every admitted host.
    /// `meas_in` is `None` while it would equal `meas_out` bit for bit.
    meas_out: Matrix,
    meas_in: Option<Matrix>,
    /// Slot-indexed coordinate chunk tree (`[outgoing d | incoming d]`
    /// rows, flagged while live) — the same persistent structure the
    /// snapshots publish, so a publish is a clone that shares every
    /// untouched chunk.
    coords: ChunkedRows<f64>,
    live_count: usize,
    /// Retired slots awaiting reuse (LIFO).
    free: Vec<usize>,
}

impl HostTable {
    /// True when host slot `slot` is allocated and live.
    fn is_live(&self, slot: usize) -> bool {
        self.coords.flagged_row(slot).is_some()
    }

    /// The table `d_in` is to be written into: the real `meas_in`, or
    /// `None` while it is absent and the row is symmetric (`meas_out`
    /// holds it). The first asymmetric row copies `meas_out` — as it
    /// stands, before this row's write — into `meas_in`, the one
    /// transition the layout has. Call before writing `d_out`.
    fn meas_in_for(&mut self, d_out: &[f64], d_in: &[f64]) -> Option<&mut Matrix> {
        if self.meas_in.is_none() && !bit_equal(d_out, d_in) {
            self.meas_in = Some(self.meas_out.clone());
        }
        self.meas_in.as_mut()
    }

    /// Bytes of measurement rows stored: slots × `k` × 8 per table held.
    fn measurement_bytes(&self) -> u64 {
        let tables = 1 + self.meas_in.is_some() as usize;
        (std::mem::size_of_val(self.meas_out.as_slice()) * tables) as u64
    }

    /// Gives one admitted host the most recently retired slot and writes
    /// its measurements and coordinates there. Returns the slot. The free
    /// list must not be empty.
    fn reuse_slot(
        &mut self,
        d_out: &[f64],
        d_in: &[f64],
        outgoing: &[f64],
        incoming: &[f64],
    ) -> usize {
        let d = self.dim;
        let slot = self.free.pop().expect("a retired slot to reuse");
        if let Some(meas_in) = self.meas_in_for(d_out, d_in) {
            meas_in.set_row(slot, d_in);
        }
        self.meas_out.set_row(slot, d_out);
        let row = self.coords.row_mut(slot);
        row[..d].copy_from_slice(outgoing);
        row[d..].copy_from_slice(incoming);
        self.coords.set_flag(slot, true);
        self.live_count += 1;
        slot
    }

    /// Gives tile rows `fresh` (of a tile of `batch` rows `rows`) the fresh
    /// slots `len ..`, in order: each measurement row is appended once,
    /// and the coordinates go in as whole live leaves. Returns the slots.
    fn append_slots(
        &mut self,
        batch: &RowBatch<'_>,
        rows: &HostRows<'_>,
        tile: &BatchHostVectors,
        fresh: Range<usize>,
    ) -> Range<usize> {
        let k = self.meas_out.cols();
        for i in fresh.clone() {
            let (d_out, d_in) = batch.row(rows.get(i), k);
            if let Some(meas_in) = self.meas_in_for(d_out, d_in) {
                meas_in.push_row(d_in);
            }
            self.meas_out.push_row(d_out);
        }
        let first = self.coords.len();
        let cells = fresh
            .clone()
            .flat_map(|i| [tile.outgoing(i), tile.incoming(i)]);
        self.coords.extend_rows(fresh.len(), cells, true);
        self.live_count += fresh.len();
        first..self.coords.len()
    }
}

/// True when the equal-length rows `a` and `b` hold the same bits — so
/// `0.0` and `-0.0` differ. Branch-free (no early exit), like the engine's
/// value check, so it vectorizes.
fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .zip(b)
        .fold(true, |same, (x, y)| same & (x.to_bits() == y.to_bits()))
}

/// A flush's outcome as shared with its followers: the assigned slots in
/// batch order, or the batch-wide error rendered to a string (the error
/// type is not `Clone`; every participant re-wraps it).
type FlushOutcome = Arc<std::result::Result<Vec<usize>, String>>;

/// Result slot of one group-commit generation: followers wait on **their
/// generation's own** condvar, so a flush wakes exactly its participants
/// (no cross-generation thundering herd — at 500 concurrent joiners that
/// herd costs more than the batched solve saves). A follower parks at
/// once: its leader has a writer-lock wait and a whole flush ahead of it,
/// longer than any spin worth burning a core on.
#[derive(Default)]
struct GenSlot {
    done: StdMutex<Option<FlushOutcome>>,
    ready: Condvar,
}

/// A scheduling point at one of the four places a generation changes
/// hands in [`Shard::join`] — after the enqueue, before the writer lock,
/// after the batch is taken, before the outcome is stored. A no-op
/// outside tests; under test, a thread that called [`interleave::seed`]
/// yields or naps here pseudo-randomly, which is how the stress test
/// reaches interleavings a free-running scheduler almost never produces.
#[inline(always)]
fn handoff_point() {
    #[cfg(test)]
    interleave::perturb();
}

#[cfg(test)]
mod interleave {
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// xorshift64 state; 0 = this thread does not perturb.
        static STATE: Cell<u64> = const { Cell::new(0) };
    }

    /// Makes the calling thread perturb its hand-off points from `seed`.
    pub(super) fn seed(seed: u64) {
        STATE.with(|s| s.set(seed | 1));
    }

    pub(super) fn perturb() {
        let x = STATE.with(|s| {
            let mut x = s.get();
            if x != 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.set(x);
            }
            x
        });
        if x == 0 {
            return;
        }
        match x % 8 {
            0..=2 => std::thread::yield_now(),
            3 => std::thread::sleep(Duration::from_micros((x >> 32) % 64)),
            _ => {}
        }
    }
}

/// The pending generation of a shard's group commit (see the module
/// docs). Guarded by [`Shard::coalescer`]'s mutex, which nests *inside*
/// the writer lock and is never held while blocking on it.
#[derive(Default)]
struct CoalesceState {
    /// Flattened pending measurement rows (`count` rows of `k` each).
    d_out: Vec<f64>,
    d_in: Vec<f64>,
    count: usize,
    /// True while a leader is waiting for the writer on behalf of the
    /// pending generation — from the generation's first enqueue until
    /// that leader, holding the writer, takes the batch.
    leader_active: bool,
    /// The pending generation's result slot; swapped for a fresh one when
    /// the leader takes the batch (followers hold their own `Arc`).
    slot: Arc<GenSlot>,
}

/// Write-side counter block of a shard (all relaxed atomics; see
/// [`Shard::stats`]). Queries count in the engine's [`ReadPath`].
#[derive(Debug, Default)]
struct Counters {
    joins: AtomicU64,
    flushes: AtomicU64,
    leaves: AtomicU64,
}

/// Some rows of a flattened row-major `hosts × k` measurement batch: how
/// a shard sees its share of an admission without a copy (`rows` strides
/// by the shard count for a dealt bulk batch, by 1 otherwise).
#[derive(Clone)]
struct RowBatch<'a> {
    d_out: &'a [f64],
    d_in: &'a [f64],
    rows: HostRows<'a>,
}

impl<'a> RowBatch<'a> {
    /// Measurement row `r` (`k` wide) of the flattened batch, out and in.
    fn row(&self, r: usize, k: usize) -> (&'a [f64], &'a [f64]) {
        let at = r * k..(r + 1) * k;
        (&self.d_out[at.clone()], &self.d_in[at])
    }

    /// The first `rows` rows of the flattened batch, in order.
    fn contiguous(rows: usize, d_out: &'a [f64], d_in: &'a [f64]) -> Self {
        RowBatch {
            d_out,
            d_in,
            rows: HostRows::range(0..rows),
        }
    }
}

/// One single-writer partition of a [`ShardedEngine`]: a writer lock over
/// the host tables, a join coalescer, and the published snapshot cell
/// (see the [module docs](self)). It holds hosts only — the landmark
/// model is the engine's, handed in by `Arc` — works in shard-local slots
/// and trusts its input: the engine above routes ids, validates
/// measurements, maintains the model and counts reads.
struct Shard {
    /// The published snapshot. Queries pin it for one closure
    /// ([`ArcSwap::with`]); a publish is a pointer swap that never makes
    /// a reader wait — a reader racing it gets the old or the new
    /// snapshot.
    snapshot: ArcSwap<Snapshot>,
    writer: Mutex<WriterState>,
    coalescer: StdMutex<CoalesceState>,
    counters: Counters,
    /// Publish-latency histogram (recorded inside [`Shard::publish`]
    /// while the writer lock is held, so the mutex is uncontended except
    /// against [`ShardedEngine::publish_latency`] readers).
    publish_hist: Mutex<LatencyHistogram>,
    /// Chunk-share of the latest publish: how many coordinate-table
    /// chunks the new snapshot reused from its predecessor, over the
    /// table's total chunks (recorded inside [`Shard::publish`]).
    chunk_shared: AtomicU64,
    chunk_total: AtomicU64,
    /// Bytes of stored measurement rows as of the latest publish
    /// ([`HostTable::measurement_bytes`]).
    measurement_bytes: AtomicU64,
    /// Landmark count, immutable for the shard's lifetime.
    k: usize,
}

impl Shard {
    /// An empty shard over the engine's landmark model as of `epoch`, with
    /// the initial (host-less) snapshot published.
    fn new(model: Arc<LandmarkModel>, epoch: f64) -> Self {
        let k = model.factors().n_from();
        let d = model.factors().dim();
        let mut writer = WriterState {
            model,
            epoch,
            hosts: HostTable {
                dim: d,
                meas_out: Matrix::zeros(0, k),
                meas_in: None,
                coords: ChunkedRows::new(2 * d),
                live_count: 0,
                free: Vec::new(),
            },
            version: 0,
            spare_out: Vec::new(),
            spare_in: Vec::new(),
            tile: TileScratch::default(),
        };
        let initial = Arc::new(Self::build_snapshot(&mut writer));
        Shard {
            snapshot: ArcSwap::new(initial),
            writer: Mutex::new(writer),
            coalescer: StdMutex::default(),
            counters: Counters::default(),
            publish_hist: Mutex::new(LatencyHistogram::new()),
            chunk_shared: AtomicU64::new(0),
            chunk_total: AtomicU64::new(0),
            measurement_bytes: AtomicU64::new(0),
            k,
        }
    }

    /// Admits a host by **group commit**: the measurements are appended
    /// to the pending generation, and either this thread is the
    /// generation's leader — it waits for the writer lock, then takes and
    /// flushes everything that queued up behind it meanwhile — or it
    /// waits for that leader to hand it its slot. One cached-Gram
    /// multi-RHS solve and one snapshot publish serve the whole batch; on
    /// an idle writer that is an immediate batch of one. Returns the
    /// host's slot.
    fn join(&self, d_out: &[f64], d_in: &[f64]) -> Result<usize> {
        let mut st = self.coalescer.lock().expect("coalescer lock");
        let index = st.count;
        let slot = st.slot.clone();
        st.d_out.extend_from_slice(d_out);
        st.d_in.extend_from_slice(d_in);
        st.count += 1;
        let leads = !std::mem::replace(&mut st.leader_active, true);
        tm::gauge_add(tm::Gauge::CoalescerQueueDepth, 1);
        // Lock order: never block on the writer holding the state lock.
        drop(st);
        handoff_point();

        // Either role now waits for something other than its own solve:
        // the leader for the writer, a follower for the leader's flush.
        tm::count(tm::Counter::CoalescerWaits);
        let wait = tm::span(tm::Stage::CoalescerWait);
        if !leads {
            let done = slot
                .ready
                .wait_while(slot.done.lock().expect("generation slot"), |done| {
                    done.is_none()
                })
                .expect("generation slot");
            let ids = done.clone().expect("waited for the outcome");
            drop(done);
            return Self::flush_result(&ids, index);
        }

        handoff_point();
        let mut w = self.writer.lock();
        // Take the generation only now, under the writer: whoever
        // enqueued while this thread waited rides along, and the next
        // enqueue starts a new generation with its own leader, who queues
        // on the writer behind this flush.
        let mut st = self.coalescer.lock().expect("coalescer lock");
        let rows = st.count;
        let mut batch_out = std::mem::replace(&mut st.d_out, std::mem::take(&mut w.spare_out));
        let mut batch_in = std::mem::replace(&mut st.d_in, std::mem::take(&mut w.spare_in));
        st.count = 0;
        if rows > 1 {
            // Followers hold this slot and wait for its outcome: the next
            // generation gets its own. A lone leader's slot was never
            // handed out and stays empty, so the next generation keeps it.
            st.slot = Arc::new(GenSlot::default());
        }
        st.leader_active = false;
        drop(st);
        drop(wait);
        tm::gauge_sub(tm::Gauge::CoalescerQueueDepth, rows as u64);
        handoff_point();

        let flushed = self.flush_locked(&mut w, RowBatch::contiguous(rows, &batch_out, &batch_in));
        batch_out.clear();
        batch_in.clear();
        w.spare_out = batch_out;
        w.spare_in = batch_in;
        drop(w);
        handoff_point();
        if rows == 1 {
            // Alone in its generation: nobody holds the slot to be told.
            return Ok(flushed?[index]);
        }
        // Hand the result to this generation's followers (only them: the
        // slot is generation-private).
        let ids: FlushOutcome = Arc::new(flushed.map_err(|e| e.to_string()));
        *slot.done.lock().expect("generation slot") = Some(ids.clone());
        slot.ready.notify_all();
        Self::flush_result(&ids, index)
    }

    /// Retires `slots` — validated live and distinct by the caller, who
    /// holds the writer lock as `w` — to the free list (no reallocation:
    /// the next admissions reuse them) with **one** snapshot publish.
    fn retire(&self, w: &mut WriterState, slots: impl Iterator<Item = usize>) {
        let hosts = &mut w.hosts;
        let before = hosts.free.len();
        for slot in slots {
            hosts.coords.set_flag(slot, false);
            hosts.free.push(slot);
        }
        let retired = hosts.free.len() - before;
        hosts.live_count -= retired;
        self.counters
            .leaves
            .fetch_add(retired as u64, Ordering::Relaxed);
        tm::count_n(tm::Counter::Leaves, retired as u64);
        self.publish(w);
    }

    /// The host step of a drift epoch on this shard: takes the engine's
    /// updated `model` (as of `epoch`) under the writer lock, re-joins the
    /// whole slot table against it (retired slots ride along harmlessly —
    /// their rows are recomputed but stay dead) and publishes **once**.
    /// Queries keep being served from the previous snapshot until the
    /// publish lands. The outcome is a pure function of `model` and the
    /// stored measurement rows, so however many landmark steps produced
    /// `model`, one call brings the shard up to date.
    ///
    /// The rejoin reads the measurement tables in place, 256 slots per
    /// tile, and each finished tile is installed as four **fresh** leaves
    /// of `[outgoing | incoming]` rows ([`ChunkedRows::replace_chunk`],
    /// straight from the tile, liveness flags untouched): an epoch rewrites
    /// every row, so nothing of an old leaf is worth copying, and the
    /// published snapshots keep the old leaves untouched. One call
    /// allocates one coordinate table's worth of leaves and nothing
    /// proportional to `slots × k`. While the shard holds one measurement
    /// table (every stored row symmetric, see [`HostTable`]) `meas_out` is
    /// passed as both directions' rows: the in-direction GEMM then
    /// re-reads each tile's rows from cache instead of a second table.
    fn rejoin_all(&self, model: &Arc<LandmarkModel>, epoch: f64) -> Result<()> {
        let mut w = self.writer.lock();
        w.model = Arc::clone(model);
        w.epoch = epoch;
        let HostTable {
            meas_out,
            meas_in,
            coords,
            ..
        } = &mut w.hosts;
        // An absent in-table means every stored row is symmetric.
        let meas_in = meas_in.as_ref().unwrap_or(meas_out);
        let slots = coords.len();
        let rejoin_span = tm::span(tm::Stage::Rejoin);
        model.join_into(
            meas_out.as_slice(),
            meas_in.as_slice(),
            &HostRows::range(0..slots),
            &mut |rows, tile| {
                // Tiles of `0..slots` are cut at multiples of TILE_ROWS,
                // itself a multiple of CHUNK_ROWS: a tile is whole leaves.
                let first = rows.get(0);
                debug_assert_eq!(first % CHUNK_ROWS, 0);
                for lo in (0..tile.len()).step_by(CHUNK_ROWS) {
                    let leaf = lo..tile.len().min(lo + CHUNK_ROWS);
                    let pieces = leaf.flat_map(|i| [tile.outgoing(i), tile.incoming(i)]);
                    coords.replace_chunk((first + lo) / CHUNK_ROWS, pieces);
                }
            },
        )?;
        drop(rejoin_span);
        self.publish(&mut w);
        Ok(())
    }

    /// Write-side counters and gauges of this shard (`queries` and
    /// `epochs` stay 0: reads and landmark steps count on the engine).
    fn stats(&self) -> ServiceStats {
        let coalescer_depth = self.coalescer.lock().expect("coalescer lock").count as u64;
        ServiceStats {
            queries: 0,
            cache_hits: 0,
            joins: self.counters.joins.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            leaves: self.counters.leaves.load(Ordering::Relaxed),
            epochs: 0,
            version: self.snapshot.with(|snap| snap.version),
            coalescer_depth,
            chunk_shared: self.chunk_shared.load(Ordering::Relaxed),
            chunk_total: self.chunk_total.load(Ordering::Relaxed),
            measurement_bytes: self.measurement_bytes.load(Ordering::Relaxed),
        }
    }

    fn flush_result(ids: &std::result::Result<Vec<usize>, String>, index: usize) -> Result<usize> {
        match ids {
            Ok(slots) => Ok(slots[index]),
            Err(msg) => Err(IdesError::InvalidInput(format!("batch join failed: {msg}"))),
        }
    }

    /// Counts `rows` hosts admitted by one flush.
    fn count_admission(&self, rows: u64) {
        self.counters.joins.fetch_add(rows, Ordering::Relaxed);
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        tm::count_n(tm::Counter::Joins, rows);
        tm::count(tm::Counter::Flushes);
    }

    /// [`Shard::flush_locked`] behind its own writer-lock acquisition: the
    /// uncoalesced admission ([`ShardedEngine::join_direct`] and a bulk
    /// batch's share).
    fn flush_rows(&self, batch: RowBatch<'_>) -> Result<Vec<usize>> {
        if batch.rows.is_empty() {
            return Ok(Vec::new());
        }
        self.flush_locked(&mut self.writer.lock(), batch)
    }

    /// Joins the batch's measurement rows through the tiled cached join —
    /// read straight out of the caller's batch, no staging copy — assigns
    /// each solved tile's slots in batch order, updates the writer tables
    /// `w` (the caller holds the writer lock), and publishes. Returns the
    /// assigned slots in batch order. Bit-identical per row however the
    /// rows were batched.
    ///
    /// The batch's first `min(free, rows)` rows reuse retired slots, most
    /// recently retired first — every churn join's path. The rest take
    /// fresh slots at the end of the tables: the measurement tables that
    /// exist reserve room for all of them once, here, and each tile
    /// appends its share ([`HostTable::append_slots`]), so a bulk admission
    /// costs its solve plus one copy of each row. The join reads the
    /// caller's batch, so the measurement layout ([`HostTable`]) never
    /// touches its arithmetic; a row that is the first asymmetric one the
    /// shard stores makes the table copy `meas_out` once, here, under the
    /// writer lock.
    fn flush_locked(&self, w: &mut WriterState, batch: RowBatch<'_>) -> Result<Vec<usize>> {
        let _span = tm::span(tm::Stage::Flush);
        let t0 = tm::enabled().then(Instant::now);
        let k = self.k;
        let mut slots = Vec::with_capacity(batch.rows.len());
        let WriterState {
            model, hosts, tile, ..
        } = &mut *w;
        let reused = hosts.free.len().min(batch.rows.len());
        let grown = batch.rows.len() - reused;
        hosts.meas_out.reserve_rows(grown);
        if let Some(meas_in) = &mut hosts.meas_in {
            meas_in.reserve_rows(grown);
        }
        // Inline: slots must be assigned in batch order.
        model.join_inline(
            batch.d_out,
            batch.d_in,
            &batch.rows,
            tile,
            &mut |rows, tile| {
                let recycled = reused.saturating_sub(slots.len()).min(rows.len());
                for (i, r) in rows.iter().enumerate().take(recycled) {
                    let (d_out, d_in) = batch.row(r, k);
                    slots.push(hosts.reuse_slot(d_out, d_in, tile.outgoing(i), tile.incoming(i)));
                }
                slots.extend(hosts.append_slots(&batch, rows, tile, recycled..rows.len()));
            },
        )?;
        self.count_admission(slots.len() as u64);
        self.publish(w);
        if let Some(t0) = t0 {
            tm::time(tm::Timer::Flush, t0.elapsed());
        }
        Ok(slots)
    }

    /// Publishes the writer's current state as a fresh snapshot: bump the
    /// version, share the landmark model (an `Arc` bump), fork the
    /// coordinate chunk tree (one `Arc` bump; the writer's later writes
    /// copy what they touch, so every untouched leaf stays shared —
    /// `O(changed leaves)`, not `O(hosts)`), and swap the pointer. Readers
    /// never wait: the swap is an atomic store.
    fn publish(&self, w: &mut WriterState) {
        let _span = tm::span(tm::Stage::Publish);
        let t0 = Instant::now();
        w.version += 1;
        // Chunk-share gauge: how much of the coordinate chunk tree this
        // publish reuses from the snapshot it replaces — the direct
        // measure of the copy-on-write publish-cost claim. The table
        // counted the leaves it diverged from that snapshot as it copied
        // them, so this reads two counters, not the tree.
        let coords = &w.hosts.coords;
        self.chunk_shared
            .store(coords.shared_with_fork() as u64, Ordering::Relaxed);
        self.chunk_total
            .store(coords.chunk_count() as u64, Ordering::Relaxed);
        self.measurement_bytes
            .store(w.hosts.measurement_bytes(), Ordering::Relaxed);
        let snap = Arc::new(Self::build_snapshot(w));
        self.snapshot.store(snap);
        let elapsed = t0.elapsed();
        self.publish_hist.lock().record(elapsed);
        tm::time(tm::Timer::Publish, elapsed);
        tm::count(tm::Counter::Publishes);
    }

    /// The writer's state as a snapshot: the chunk tree is forked, so the
    /// next publish's gauge counts against this one.
    fn build_snapshot(w: &mut WriterState) -> Snapshot {
        Snapshot {
            version: w.version,
            epoch: w.epoch,
            landmarks: Arc::clone(&w.model),
            coords: w.hosts.coords.fork(),
            live_count: w.hosts.live_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::BatchHostVectors;
    use crate::streaming::{EpochUpdate, MeasurementDelta, StalenessPolicy, StreamingServer};

    fn server(k: usize, dim: usize) -> StreamingServer {
        let ds = ides_datasets::generators::p2psim_like(k + 20, 7).expect("dataset");
        let sub: Vec<usize> = (0..k).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        StreamingServer::new(&lm, dim, StalenessPolicy::default()).expect("server")
    }

    /// A bare shard over a fresh server's model.
    fn shard(k: usize, dim: usize) -> Shard {
        let server = server(k, dim);
        Shard::new(Arc::clone(server.landmark_model()), server.epoch())
    }

    /// A one-shard engine: global host ids are its shard's slots.
    fn engine(k: usize, dim: usize) -> ShardedEngine {
        ShardedEngine::new(server(k, dim), 1, ServiceConfig::default()).expect("engine")
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn snapshot(e: &ShardedEngine) -> Arc<Snapshot> {
        e.snapshots().remove(0)
    }

    fn meas(k: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..k)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 * 50.0 + 5.0
            })
            .collect()
    }

    #[test]
    fn span_sampling_fires_once_per_period() {
        let singles = (0..640).filter(|&q| covers_sampling_tick(q, 1)).count();
        assert_eq!(singles, 10);
        // A batch is sampled iff its tick range holds a multiple of 64.
        assert!(covers_sampling_tick(0, 3) && covers_sampling_tick(62, 3));
        assert!(!covers_sampling_tick(1, 63) && covers_sampling_tick(1, 64));
        assert!(!covers_sampling_tick(64, 0));
    }

    #[test]
    fn coalesced_join_is_bit_identical_to_direct() {
        // Two engines over the same server state: one admits through the
        // coalescer from many threads, the other one-at-a-time. Matching
        // measurement rows must produce bit-identical coordinates no
        // matter how the coalescer happened to batch them.
        let hosts = 40;
        let coalesced = engine(10, 4);
        let direct = engine(10, 4);
        let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..hosts)
            .map(|h| (meas(10, 100 + h as u64), meas(10, 500 + h as u64)))
            .collect();
        // Coalesced, from 8 threads.
        let slot_of: Vec<usize> = {
            let mut slots = vec![0usize; hosts];
            std::thread::scope(|scope| {
                for (chunk_idx, chunk) in slots.chunks_mut(hosts / 8).enumerate() {
                    let rows = &rows;
                    let e = &coalesced;
                    let base = chunk_idx * (hosts / 8);
                    scope.spawn(move || {
                        for (i, slot) in chunk.iter_mut().enumerate() {
                            let (o, inn) = &rows[base + i];
                            let NodeId::Host(s) = e.join(o, inn).unwrap() else {
                                panic!("join returned a landmark")
                            };
                            *slot = s;
                        }
                    });
                }
            });
            slots
        };
        // Direct, sequentially.
        let direct_slots: Vec<usize> = rows
            .iter()
            .map(|(o, i)| {
                let NodeId::Host(s) = direct.join_direct(o, i).unwrap() else {
                    panic!("join returned a landmark")
                };
                s
            })
            .collect();
        let snap_c = snapshot(&coalesced);
        let snap_d = snapshot(&direct);
        assert_eq!(snap_c.host_count(), hosts);
        for h in 0..hosts {
            let (sc, sd) = (slot_of[h], direct_slots[h]);
            for j in 0..4 {
                assert_eq!(
                    snap_c.host_outgoing(sc)[j].to_bits(),
                    snap_d.host_outgoing(sd)[j].to_bits(),
                    "host {h} outgoing[{j}]"
                );
                assert_eq!(
                    snap_c.host_incoming(sc)[j].to_bits(),
                    snap_d.host_incoming(sd)[j].to_bits(),
                    "host {h} incoming[{j}]"
                );
            }
        }
        // How the 40 joins batched is the scheduler's business (the
        // held-writer test below pins it); every one was admitted.
        let stats = coalesced.stats();
        assert_eq!(stats.joins, hosts as u64);
        assert!((1..=stats.joins).contains(&stats.flushes));
    }

    #[test]
    fn joiners_behind_a_held_writer_become_one_batch() {
        // Group commit, forced: while the writer is held eight joiners
        // enqueue — one leader blocked on the writer, seven followers
        // parked on its generation. Releasing the writer must admit all
        // eight with exactly one solve + publish.
        const JOINERS: usize = 8;
        let k = 10;
        let shard = shard(k, 4);
        let rows: Vec<(Vec<f64>, Vec<f64>)> = (0..JOINERS as u64)
            .map(|h| (meas(k, 300 + h), meas(k, 700 + h)))
            .collect();
        let slots: Vec<usize> = std::thread::scope(|scope| {
            let held = shard.writer.lock();
            let joiners: Vec<_> = rows
                .iter()
                .map(|(o, i)| {
                    let shard = &shard;
                    scope.spawn(move || shard.join(o, i).expect("join"))
                })
                .collect();
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            while shard.stats().coalescer_depth < JOINERS as u64 {
                assert!(Instant::now() < deadline, "joiners never enqueued");
                std::thread::yield_now();
            }
            assert_eq!(
                shard.stats().flushes,
                0,
                "nothing flushes under a held writer"
            );
            drop(held);
            joiners
                .into_iter()
                .map(|j| j.join().expect("joiner"))
                .collect()
        });
        let stats = shard.stats();
        assert_eq!((stats.joins, stats.flushes), (JOINERS as u64, 1));
        assert_eq!((stats.version, stats.coalescer_depth), (1, 0));
        let snap = shard.snapshot.load();
        assert_eq!(snap.host_count(), JOINERS);
        let mut distinct = slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), JOINERS, "slots {slots:?}");
        // Each joiner got the slot holding *its* row's coordinates: the
        // bits of an uncoalesced admission of the same measurements.
        let direct = self::shard(k, 4);
        for ((o, i), &slot) in rows.iter().zip(&slots) {
            let d = direct
                .flush_rows(RowBatch::contiguous(1, o, i))
                .expect("direct")[0];
            let want = direct.snapshot.load();
            assert!(snap.is_live(slot));
            assert_eq!(bits(snap.host_outgoing(slot)), bits(want.host_outgoing(d)));
            assert_eq!(bits(snap.host_incoming(slot)), bits(want.host_incoming(d)));
        }
    }

    #[test]
    fn an_idle_writer_admits_without_waiting() {
        // No timer anywhere on the join path: a lone joiner on an idle
        // shard pays its solve and its publish. 1 000 of them take a few
        // milliseconds; any fixed per-join wait of 150 µs or more (the
        // batching timer this replaced cost 290 µs) fails the bound, with
        // an order of magnitude to spare for a loaded host.
        let e = engine(10, 4);
        let (o, i) = (meas(10, 1), meas(10, 2));
        let t0 = Instant::now();
        for _ in 0..1000 {
            e.join(&o, &i).expect("join");
        }
        let took = t0.elapsed();
        assert!(took.as_millis() < 150, "1000 idle joins took {took:?}");
        let stats = e.stats();
        assert_eq!((stats.joins, stats.flushes), (1000, 1000));
    }

    /// One seeded run of the hand-off stress: 8 joiners × 200 joins with
    /// every hand-off point perturbed, each joiner retiring two of every
    /// three hosts it admitted as it goes, and a drift writer landing four
    /// epochs among them. The joiners re-align at a barrier every `ROUND`
    /// joins: each round then ends in a join with no later arrival to
    /// rescue it, which is where a generation left without a leader
    /// stalls instead of being swept up by the next joiner.
    fn stress_handoff(seed: u64) {
        use std::collections::HashSet;
        const JOINERS: usize = 8;
        const JOINS: usize = 200;
        const EPOCHS: usize = 4;
        const ROUND: usize = 4;
        let k = 10;
        let e = engine(k, 4);
        let row = |r: usize| (meas(k, 10_000 + r as u64), meas(k, 50_000 + r as u64));
        let drift = |epoch: usize| EpochUpdate {
            epoch: epoch as f64,
            deltas: vec![MeasurementDelta {
                from: epoch % k,
                to: (epoch + 3) % k,
                rtt: 12.0 + epoch as f64,
            }],
        };
        // Ids currently admitted, maintained around the calls (inserted
        // after `join` returns, removed before `leave` is called): an id
        // handed out while still in here went to two live hosts.
        let live = StdMutex::new(HashSet::new());
        let joiners_done = std::sync::atomic::AtomicBool::new(false);
        let round = std::sync::Barrier::new(JOINERS);
        let mut kept: Vec<(NodeId, usize)> = Vec::new();
        let mut left = 0u64;
        std::thread::scope(|scope| {
            let joiners: Vec<_> = (0..JOINERS)
                .map(|t| {
                    let (e, live, round) = (&e, &live, &round);
                    scope.spawn(move || {
                        interleave::seed((seed << 8) + t as u64 + 1);
                        let mut mine: Vec<(NodeId, usize)> = Vec::new();
                        let mut left = 0u64;
                        for j in 0..JOINS {
                            if j % ROUND == 0 {
                                round.wait();
                            }
                            let r = t * JOINS + j;
                            let (o, i) = row(r);
                            let id = e.join(&o, &i).expect("join");
                            assert!(
                                live.lock().expect("live set").insert(id),
                                "seed {seed}: {id:?} handed to two live hosts"
                            );
                            mine.push((id, r));
                            if j % 3 != 0 {
                                let (gone, _) = mine.swap_remove((r * 7 + j) % mine.len());
                                live.lock().expect("live set").remove(&gone);
                                e.leave(gone).expect("leave");
                                left += 1;
                            }
                        }
                        (mine, left)
                    })
                })
                .collect();
            // The drift writer: epoch `n` lands once `n / (EPOCHS + 1)`
            // of the joins are in, so every epoch contends with joiners
            // (it gives up only if they died short of that).
            let writer = scope.spawn(|| {
                for epoch in 1..=EPOCHS {
                    let due = (epoch * JOINERS * JOINS / (EPOCHS + 1)) as u64;
                    while e.stats().joins < due {
                        if joiners_done.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                    e.apply_epoch(&drift(epoch)).expect("epoch");
                }
            });
            let joined: Vec<_> = joiners.into_iter().map(|j| j.join()).collect();
            joiners_done.store(true, Ordering::Relaxed);
            writer.join().expect("drift writer");
            for outcome in joined {
                let (mine, gone) = outcome.unwrap_or_else(|p| std::panic::resume_unwind(p));
                kept.extend(mine);
                left += gone;
            }
        });
        let stats = e.stats();
        assert_eq!(stats.joins, (JOINERS * JOINS) as u64, "seed {seed}");
        assert_eq!(stats.leaves, left, "seed {seed}");
        assert_eq!(stats.epochs, EPOCHS as u64, "seed {seed}");
        assert_eq!(stats.coalescer_depth, 0, "seed {seed}");
        assert!(stats.flushes <= stats.joins);
        assert_eq!(kept.len() as u64, stats.joins - stats.leaves);
        assert_eq!(snapshot(&e).host_count(), kept.len(), "seed {seed}");
        assert_eq!(live.into_inner().expect("live set").len(), kept.len());
        // Replay without concurrency or coalescing: same epochs, then the
        // surviving hosts one at a time. Every survivor must hold exactly
        // these bits under the id its `join` call returned.
        let replay = engine(k, 4);
        for epoch in 1..=EPOCHS {
            replay.apply_epoch(&drift(epoch)).expect("epoch");
        }
        for &(id, r) in &kept {
            let (o, i) = row(r);
            let rid = replay.join_direct(&o, &i).expect("direct join");
            let (got, want) = (e.host_coords(id).unwrap(), replay.host_coords(rid).unwrap());
            assert_eq!(bits(&got.0), bits(&want.0), "seed {seed}: row {r} outgoing");
            assert_eq!(bits(&got.1), bits(&want.1), "seed {seed}: row {r} incoming");
        }
    }

    #[test]
    fn handoff_survives_injected_interleavings() {
        // Each seed runs under a watchdog: a lost wake-up or a generation
        // nobody leads shows up as a join that never returns, which must
        // fail the test rather than hang it.
        for seed in 1..=16u64 {
            let (done, finished) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                stress_handoff(seed);
                done.send(()).ok();
            });
            match finished.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(()) => run.join().expect("stress run"),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("seed {seed}: the hand-off stalled (a join never returned)")
                }
                // The run panicked: surface its message.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    std::panic::resume_unwind(run.join().expect_err("run panicked"))
                }
            }
        }
    }

    #[test]
    fn epoch_publish_rejoins_hosts_and_the_next_query_sees_it() {
        let e = engine(12, 4);
        let id = e.join_direct(&meas(12, 9), &meas(12, 10)).unwrap();
        let before = e.estimate(id, NodeId::Landmark(5)).unwrap();
        let v_before = snapshot(&e).version();
        // Drift one landmark pair hard enough to move the model.
        let base = 15.0;
        let outcome = e
            .apply_epoch(&EpochUpdate {
                epoch: 1.0,
                deltas: vec![
                    MeasurementDelta {
                        from: 1,
                        to: 6,
                        rtt: base,
                    },
                    MeasurementDelta {
                        from: 6,
                        to: 1,
                        rtt: base,
                    },
                ],
            })
            .unwrap();
        assert_eq!(outcome.applied, 2);
        let snap = snapshot(&e);
        assert!(snap.version() > v_before);
        assert_eq!(snap.epoch(), 1.0);
        // The host was re-joined against the maintained model: its
        // coordinates match a snapshot-side join of its measurements.
        let d_out = Matrix::from_rows(&[meas(12, 9)]).unwrap();
        let d_in = Matrix::from_rows(&[meas(12, 10)]).unwrap();
        let mut fresh = BatchHostVectors::new();
        snap.landmark_model()
            .join_batch(&d_out, &d_in, &mut fresh)
            .unwrap();
        let NodeId::Host(slot) = id else {
            unreachable!()
        };
        for j in 0..4 {
            assert_eq!(
                snap.host_outgoing(slot)[j].to_bits(),
                fresh.outgoing(0)[j].to_bits()
            );
        }
        // No staleness window: the first query issued after apply_epoch
        // returned is answered from the snapshot it published.
        let after = e.estimate(id, NodeId::Landmark(5)).unwrap();
        let want = snap.estimate(id, NodeId::Landmark(5)).unwrap();
        assert_eq!(after.to_bits(), want.to_bits());
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "epoch must move the estimate for this test to bite"
        );
        assert_eq!(e.stats().epochs, 1);
    }

    #[test]
    fn a_pinned_snapshot_keeps_its_bits_through_copy_on_write_churn() {
        // Five full leaves and a ragged sixth. A snapshot pinned before a
        // burst of leaves and joins into every one of its leaves — slots
        // retired, recycled and grown, one at a time and in batches — must
        // read exactly what it read before, row bits and liveness alike.
        let k = 12;
        let hosts = 5 * CHUNK_ROWS + 9;
        let e = engine(k, 4);
        for h in 0..hosts as u64 {
            e.join_direct(&meas(k, h), &meas(k, 9000 + h)).unwrap();
        }
        e.leave_many(&[NodeId::Host(2), NodeId::Host(CHUNK_ROWS + 1)])
            .unwrap();
        let pinned = snapshot(&e);
        let seen = |snap: &Snapshot| -> Vec<(Vec<u64>, bool)> {
            (0..hosts)
                .map(|s| (bits(snap.coords().row(s)), snap.is_live(s)))
                .collect()
        };
        let before = seen(&pinned);
        let mut salt = 50_000u64;
        for round in 0..3 {
            let gone: Vec<NodeId> = (round..hosts)
                .step_by(5)
                .filter(|&s| s != 2 && s != CHUNK_ROWS + 1)
                .map(NodeId::Host)
                .collect();
            e.leave_many(&gone).unwrap();
            for _ in 0..gone.len() / 2 {
                salt += 1;
                e.join(&meas(k, salt), &meas(k, salt + 7)).unwrap();
            }
            let rest = gone.len() - gone.len() / 2 + 3;
            let batch = |seed: u64| {
                Matrix::from_rows(
                    &(0..rest as u64)
                        .map(|i| meas(k, seed + i))
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            };
            e.join_many(&batch(salt), &batch(salt + 500)).unwrap();
            salt += 1_000;
        }
        assert!(
            snapshot(&e).slot_count() > hosts,
            "the burst must grow the table too"
        );
        assert_eq!(pinned.slot_count(), hosts);
        assert_eq!(seen(&pinned), before, "a pinned snapshot changed");

        // One join after a publish diverges exactly one coordinate leaf
        // (the recycled slot's), and the counted gauge says so — the value
        // the pointer walk gives.
        e.leave(NodeId::Host(3)).unwrap();
        let published = snapshot(&e);
        let id = e.join(&meas(k, 1), &meas(k, 2)).unwrap();
        assert_eq!(id, NodeId::Host(3));
        let stats = e.stats();
        assert_eq!(stats.chunk_shared, stats.chunk_total - 1);
        assert_eq!(
            stats.chunk_shared as usize,
            snapshot(&e).coords().shared_chunks_with(published.coords())
        );
    }

    #[test]
    fn epoch_installs_the_bits_of_a_row_by_row_rejoin() {
        // Four full leaf chunks and a ragged fifth, with retired slots at
        // chunk edges: after a single epoch and after a batch of three
        // every slot — live or retired — must hold exactly what joining
        // its stored measurements against the published model gives, row
        // by row, and untouched structure (liveness, counts) must survive
        // the whole-chunk installs.
        let k = 12;
        let slots = 4 * CHUNK_ROWS + 37;
        let e = engine(k, 4);
        let d_out =
            Matrix::from_rows(&(0..slots).map(|h| meas(k, h as u64)).collect::<Vec<_>>()).unwrap();
        let d_in = Matrix::from_rows(
            &(0..slots)
                .map(|h| meas(k, 9000 + h as u64))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let ids = e.join_many(&d_out, &d_in).unwrap();
        let gone: Vec<NodeId> = [0, 5, CHUNK_ROWS - 1, CHUNK_ROWS, 4 * CHUNK_ROWS + 36]
            .iter()
            .map(|&h| ids[h])
            .collect();
        e.leave_many(&gone).unwrap();
        let drift = |epoch: f64, rtt: f64| EpochUpdate {
            epoch,
            deltas: vec![MeasurementDelta {
                from: 2,
                to: 7,
                rtt,
            }],
        };
        let check = |label: &str| {
            let snap = snapshot(&e);
            assert_eq!(snap.slot_count(), slots);
            assert_eq!(snap.host_count(), slots - gone.len());
            let mut one = BatchHostVectors::new();
            for slot in 0..slots {
                let row_out = Matrix::from_rows(&[d_out.row(slot).to_vec()]).unwrap();
                let row_in = Matrix::from_rows(&[d_in.row(slot).to_vec()]).unwrap();
                snap.landmark_model()
                    .join_batch(&row_out, &row_in, &mut one)
                    .unwrap();
                assert_eq!(
                    bits(snap.host_outgoing(slot)),
                    bits(one.outgoing(0)),
                    "{label}: slot {slot} outgoing"
                );
                assert_eq!(
                    bits(snap.host_incoming(slot)),
                    bits(one.incoming(0)),
                    "{label}: slot {slot} incoming"
                );
                assert_eq!(
                    snap.is_live(slot),
                    !gone.contains(&NodeId::Host(slot)),
                    "{label}: slot {slot} liveness"
                );
            }
        };
        let before = snapshot(&e);
        e.apply_epoch(&drift(1.0, 14.0)).unwrap();
        check("single epoch");
        // The replaced snapshot still reads its own (old) chunks.
        assert_eq!(before.epoch(), 0.0);
        assert_ne!(
            before.host_outgoing(3)[0].to_bits(),
            snapshot(&e).host_outgoing(3)[0].to_bits(),
            "the epoch must move coordinates for this test to bite"
        );
        e.apply_epochs(&[drift(2.0, 15.0), drift(3.0, 16.5), drift(4.0, 13.0)])
            .unwrap();
        check("batch of three");
        // A retired slot is recycled by the next admission, in the ragged
        // chunk the epochs reinstalled.
        let id = e.join_direct(d_out.row(1), d_in.row(1)).unwrap();
        assert_eq!(id, NodeId::Host(4 * CHUNK_ROWS + 36));
        let fresh = e.join_direct(d_out.row(2), d_in.row(2)).unwrap();
        assert!(e.estimate(fresh, id).is_ok());
    }

    #[test]
    fn a_failed_batch_publishes_the_epochs_it_applied() {
        // `[good, bad]`: the batch must end exactly where two
        // `apply_epoch` calls would — `good` applied, counted and
        // published, `bad` (a NaN RTT) refused with nothing changed — not
        // with `good` sitting unpublished in the writer for the next
        // join's publish to leak.
        let k = 12;
        let drift = |epoch: f64, rtt: f64| EpochUpdate {
            epoch,
            deltas: vec![MeasurementDelta {
                from: 2,
                to: 7,
                rtt,
            }],
        };
        let (good, bad) = (drift(1.0, 14.0), drift(2.0, f64::NAN));
        let (batched, reference) = (engine(k, 4), engine(k, 4));
        let mut ids = Vec::new();
        for e in [&batched, &reference] {
            ids = (0..5)
                .map(|h| e.join_direct(&meas(k, h), &meas(k, 100 + h)).unwrap())
                .collect();
        }
        reference.apply_epoch(&good).unwrap();
        let err = batched.apply_epochs(&[good, bad]).unwrap_err();
        assert!(matches!(err, IdesError::InvalidInput(_)), "got {err:?}");

        let served = |e: &ShardedEngine| -> Vec<u64> {
            ids.iter()
                .flat_map(|&a| [(a, NodeId::Landmark(7)), (NodeId::Landmark(2), a)])
                .map(|(a, b)| e.estimate(a, b).unwrap().to_bits())
                .collect()
        };
        assert_eq!(batched.current_epoch(), 1.0);
        assert_eq!(batched.stats().epochs, 1);
        assert_eq!(batched.stats().version, reference.stats().version);
        let after_batch = served(&batched);
        assert_eq!(after_batch, served(&reference));
        // A later join publishes its own row and nothing else.
        batched.join_direct(&meas(k, 50), &meas(k, 51)).unwrap();
        assert_eq!(served(&batched), after_batch);
        assert_eq!(batched.current_epoch(), 1.0);
    }

    #[test]
    fn a_rank_deficient_epoch_is_refused_and_the_next_one_applies() {
        // Every landmark RTT set to 0 passes validation, but the factors it
        // leads to are rank-deficient. On a 2-shard engine the epoch must be
        // refused with the served state unchanged, and the next valid epoch
        // (1 % drift on 20 pairs) must go through and serve finite answers.
        let k = 20;
        let srv = server(k, 4);
        let base = srv.landmark_matrix().clone();
        let e = ShardedEngine::new(srv, 2, ServiceConfig::default()).expect("engine");
        let ids: Vec<NodeId> = (0..6)
            .map(|h| e.join_direct(&meas(k, h), &meas(k, 100 + h)).unwrap())
            .collect();
        let served = |e: &ShardedEngine| -> Vec<f64> {
            let peers = || ids.iter().chain([&NodeId::Landmark(3)]);
            let pairs = ids.iter().flat_map(|&a| peers().map(move |&b| (a, b)));
            let pairs = pairs.filter(|(a, b)| a != b);
            pairs.map(|(a, b)| e.estimate(a, b).unwrap()).collect()
        };
        let update = |epoch: f64, deltas: Vec<(usize, usize, f64)>| EpochUpdate {
            epoch,
            deltas: deltas
                .into_iter()
                .map(|(from, to, rtt)| MeasurementDelta { from, to, rtt })
                .collect(),
        };
        let before = served(&e);
        let zeros = update(1.0, (0..k * k).map(|i| (i / k, i % k, 0.0)).collect());
        let err = e.apply_epoch(&zeros).unwrap_err();
        assert!(matches!(err, IdesError::InvalidInput(_)), "got {err:?}");
        assert_eq!(bits(&served(&e)), bits(&before));
        assert_eq!((e.current_epoch(), e.stats().epochs), (0.0, 0));

        let drift = (0..k).map(|i| (i, (i + 1) % k, base[(i, (i + 1) % k)] * 1.01));
        e.apply_epoch(&update(2.0, drift.collect()))
            .expect("a valid epoch after a refused one");
        let after = served(&e);
        assert!(after.iter().all(|v| v.is_finite()), "{after:?}");
        assert_ne!(
            bits(&after),
            bits(&before),
            "the valid epoch must move answers"
        );
    }

    #[test]
    fn concurrent_epoch_writers_agree_on_one_model() {
        // Two threads race `apply_epoch` on a 2-shard engine, 200 rounds,
        // with updates that touch overlapping landmark rows — so the order
        // they land in matters. Whatever order a round's two epochs took,
        // every shard must have taken them in that order: one model, one
        // epoch stamp. A serial 1-shard engine fed each round in the order
        // the stamp reveals must end in the same bits.
        const ROUNDS: usize = 200;
        let k = 10;
        let fitted = server(k, 4);
        let base = fitted.landmark_matrix().clone();
        let racing =
            ShardedEngine::new(fitted.clone(), 2, ServiceConfig::default()).expect("engine");
        let serial = ShardedEngine::new(fitted, 1, ServiceConfig::default()).expect("engine");
        let ids: Vec<NodeId> = (0..6u64)
            .map(|h| {
                let (o, i) = (meas(k, h), meas(k, 100 + h));
                let id = racing.join_direct(&o, &i).expect("join");
                assert_eq!(serial.join_direct(&o, &i).expect("join"), id);
                id
            })
            .collect();
        let model_bits = |snap: &Snapshot| {
            let mut all = bits(snap.model().x().as_slice());
            all.extend(bits(snap.model().y().as_slice()));
            all
        };
        for round in 0..ROUNDS {
            let drift = |stamp: usize, pairs: [(usize, usize); 2]| EpochUpdate {
                epoch: stamp as f64,
                deltas: pairs
                    .iter()
                    .map(|&(from, to)| MeasurementDelta {
                        from,
                        to,
                        rtt: base[(from, to)] * (1.0 + 0.01 * ((round + stamp) % 7 + 1) as f64),
                    })
                    .collect(),
            };
            let a = drift(2 * round + 1, [(1, 4), (4, 7)]);
            let b = drift(2 * round + 2, [(4, 1), (7, 2)]);
            // Both writers leave the barrier together, so the two epochs
            // overlap in most rounds rather than in the odd one.
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for update in [&a, &b] {
                    let (racing, start) = (&racing, &start);
                    scope.spawn(move || {
                        start.wait();
                        racing.apply_epoch(update).expect("racing epoch");
                    });
                }
            });
            let snaps = racing.snapshots();
            assert_eq!(
                snaps[0].epoch().to_bits(),
                snaps[1].epoch().to_bits(),
                "round {round}: the shards stand at different epochs"
            );
            assert_eq!(
                model_bits(&snaps[0]),
                model_bits(&snaps[1]),
                "round {round}: the shards hold different models"
            );
            // The stamp names the epoch that went second.
            let order = if snaps[0].epoch() == b.epoch {
                [&a, &b]
            } else {
                [&b, &a]
            };
            for update in order {
                serial.apply_epoch(update).expect("serial epoch");
            }
        }
        assert_eq!(
            model_bits(&racing.snapshots()[0]),
            model_bits(&snapshot(&serial))
        );
        assert_eq!(racing.stats().epochs, 2 * ROUNDS as u64);
        for &id in &ids {
            let (got, want) = (
                racing.host_coords(id).unwrap(),
                serial.host_coords(id).unwrap(),
            );
            assert_eq!(bits(&got.0), bits(&want.0), "{id:?} outgoing");
            assert_eq!(bits(&got.1), bits(&want.1), "{id:?} incoming");
        }
    }

    #[test]
    fn join_validates_measurements() {
        let e = engine(10, 3);
        assert!(e.join_direct(&meas(9, 1), &meas(10, 1)).is_err());
        let mut bad = meas(10, 1);
        bad[3] = f64::NAN;
        assert!(e.join_direct(&bad, &meas(10, 1)).is_err());
        bad[3] = -1.0;
        assert!(e.join_direct(&bad, &meas(10, 1)).is_err());
        assert!(ShardedEngine::new(server(10, 3), 0, ServiceConfig::default()).is_err());
    }
}
