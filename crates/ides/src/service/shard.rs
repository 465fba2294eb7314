//! The serving engine: one landmark server and `N` single-writer host
//! shards behind one id space.
//!
//! The paper's information-server state has exactly the shape that
//! shards: the landmark factor model is tiny (`k × d`, global, slowly
//! drifting) while the admitted-host coordinate table dominates and is
//! embarrassingly partitionable — a host's coordinates depend only on its
//! own measurement rows and the landmark model (Eq. 11/12), never on
//! other hosts. [`ShardedEngine`] therefore:
//!
//! * **Shares** the landmark model: the engine owns the one
//!   [`StreamingServer`] (§5.1's information server) behind a mutex, and
//!   every shard holds the model it maintains by
//!   `Arc<`[`LandmarkModel`](crate::streaming::LandmarkModel)`>`. A drift
//!   epoch runs its landmark step **once**, under that mutex, and then
//!   has every shard re-join its hosts against the result — still under
//!   it, so concurrent epoch writers reach every shard in one order. A
//!   landmark row can be read from any shard's snapshot.
//! * **Partitions** the hosts round-robin: global host id `g` lives on
//!   shard `g % N` at local slot `g / N`. Joins route round-robin, so
//!   shard populations stay balanced within one host.
//! * **Writes concurrently**: each shard owns its coalescer, writer lock,
//!   and snapshot cell, so joins/leaves on different shards never
//!   contend. Bulk admissions and drift epochs fan out across shards
//!   (`fan_out`, through [`ides_linalg::kernels::fan_out`]: one shard
//!   runs on the calling thread and never spawns, two or more run on
//!   scoped threads of their own, and a bulk admission runs only the
//!   shards its rows are dealt to).
//! * **Validates at the boundary**: measurements and ids are checked for
//!   the whole call before any shard mutates, so a rejected batch leaves
//!   every shard exactly as it was.
//! * **Reads lock-free**: an estimate pins each endpoint's shard snapshot
//!   (one pin when both rows live on one shard, two otherwise) and dots
//!   one coordinate row from each — the same arithmetic at any shard
//!   count, hence bit-identical answers (property-tested in
//!   `tests/sharding_determinism.rs`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ides_linalg::{kernels, Matrix};
use parking_lot::Mutex;

use crate::error::{IdesError, Result};
use crate::streaming::{EpochOutcome, EpochUpdate, HostRows, StreamingServer};
use crate::telemetry as tm;

use super::metrics::{LatencyHistogram, ServiceStats};
use super::{
    pair_estimate, unknown_node, NodeId, ReadPath, RowBatch, ServiceConfig, Shard, Snapshot,
};

/// The concurrent distance-query serving engine (see the [module
/// docs](self) and [`crate::service`]). Host ids returned by its join
/// paths are **global** (`local · N + shard`) and only meaningful to this
/// engine.
pub struct ShardedEngine {
    /// The one landmark server. An epoch holds this lock from its
    /// landmark step to the last shard's publish; nothing else takes it.
    /// **Lock order**: server, then a shard's writer.
    server: Mutex<StreamingServer>,
    /// Landmark steps applied (always-on counter behind `stats().epochs`).
    epochs: AtomicU64,
    shards: Vec<Shard>,
    /// Round-robin admission router.
    next: AtomicUsize,
    /// The read path: estimates pin the shards' snapshot cells directly
    /// and count here.
    reads: ReadPath,
    /// Landmark count, immutable for the engine's lifetime.
    k: usize,
}

/// A pair resolved to where its rows live: the shard holding `a`'s
/// outgoing row and the shard holding `b`'s incoming row, each with the
/// shard-local id.
struct Resolved {
    shard_a: usize,
    a: NodeId,
    shard_b: usize,
    b: NodeId,
}

/// Every shard's snapshot pinned at once, as a stack-allocated list
/// built by [`ShardedEngine::with_all_pinned`] (head = shard 0).
struct PinnedShards<'a> {
    snap: &'a Snapshot,
    rest: Option<&'a PinnedShards<'a>>,
}

impl PinnedShards<'_> {
    fn shard(&self, i: usize) -> &Snapshot {
        let mut node = self;
        for _ in 0..i {
            node = node.rest.expect("one node per shard");
        }
        node.snap
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("landmarks", &self.k)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Takes a fitted [`StreamingServer`] as the engine's landmark server
    /// and sets up `shards` empty host shards over its model (each shares
    /// the model by `Arc` and has its own writer and coalescer), with the
    /// initial host-less snapshots published. [`ServiceConfig`] carries no
    /// settings.
    pub fn new(server: StreamingServer, shards: usize, _config: ServiceConfig) -> Result<Self> {
        if shards == 0 {
            return Err(IdesError::InvalidInput("need at least one shard".into()));
        }
        if server.dim() == 0 {
            return Err(IdesError::InvalidInput(
                "server dimensionality must be at least 1".into(),
            ));
        }
        let k = server.landmark_count();
        let shards = (0..shards)
            .map(|_| Shard::new(Arc::clone(server.landmark_model()), server.epoch()))
            .collect();
        Ok(ShardedEngine {
            server: Mutex::new(server),
            epochs: AtomicU64::new(0),
            shards,
            next: AtomicUsize::new(0),
            reads: ReadPath::default(),
            k,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.k
    }

    /// Which shard owns `node`'s coordinate row. Landmarks are shared by
    /// every shard and report shard 0.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.owner(node).unwrap_or(0)
    }

    /// `Some(shard)` for hosts, `None` for (shared) landmarks.
    fn owner(&self, node: NodeId) -> Option<usize> {
        match node {
            NodeId::Host(g) => Some(g % self.shards.len()),
            NodeId::Landmark(_) => None,
        }
    }

    /// Maps a global id to the owning shard's local id.
    fn to_local(&self, node: NodeId) -> NodeId {
        match node {
            NodeId::Host(g) => NodeId::Host(g / self.shards.len()),
            lm => lm,
        }
    }

    /// The global id of `shard`'s local host slot `slot`.
    fn host_id(&self, shard: usize, slot: usize) -> NodeId {
        NodeId::Host(slot * self.shards.len() + shard)
    }

    /// Resolves a pair to the shard(s) holding its rows. Host endpoints
    /// anchor the shard choice; a host–landmark pair resolves both rows
    /// on the host's shard, landmark–landmark on shard 0.
    fn resolve(&self, a: NodeId, b: NodeId) -> Resolved {
        let shard_a = self.owner(a).or_else(|| self.owner(b)).unwrap_or(0);
        Resolved {
            shard_a,
            a: self.to_local(a),
            shard_b: self.owner(b).unwrap_or(shard_a),
            b: self.to_local(b),
        }
    }

    /// Every shard's current snapshot as an owned `Arc` (a pin plus an
    /// `Arc` clone each, lock-free), in shard order; answer queries
    /// against the returned vector via [`ShardedEngine::estimate_on`] for
    /// one consistent view that outlives the call, or inspect the
    /// published tables (ids are shard-local there: global host `g` is
    /// slot `g / N` of snapshot `g % N`).
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.shards.iter().map(|s| s.snapshot.load()).collect()
    }

    /// Drift epoch of the published model (every shard rejoins on every
    /// epoch call, so any shard's snapshot answers).
    pub fn current_epoch(&self) -> f64 {
        self.shards[0].snapshot.with(|snap| snap.epoch())
    }

    /// Estimated distance from `a` to `b`: `a`'s outgoing row from its
    /// shard's snapshot dotted with `b`'s incoming row from its — the
    /// Eq. 10 arithmetic of [`Snapshot::estimate`], so answers are
    /// bit-identical at any shard count. A host–landmark pair reads both
    /// rows from the host's shard (one pin); only host–host pairs on
    /// different shards pin two snapshots.
    pub fn estimate(&self, a: NodeId, b: NodeId) -> Result<f64> {
        let r = self.resolve(a, b);
        self.reads.serve(1, || {
            self.shards[r.shard_a].snapshot.with(|snap_a| {
                if r.shard_b == r.shard_a {
                    pair_estimate(snap_a, r.a, snap_a, r.b)
                } else {
                    self.shards[r.shard_b]
                        .snapshot
                        .with(|snap_b| pair_estimate(snap_a, r.a, snap_b, r.b))
                }
            })
        })
    }

    /// [`ShardedEngine::estimate`] against caller-held snapshots (from
    /// [`ShardedEngine::snapshots`]); pins nothing. `snaps` must hold one
    /// snapshot per shard.
    pub fn estimate_on(&self, snaps: &[Arc<Snapshot>], a: NodeId, b: NodeId) -> Result<f64> {
        if snaps.len() != self.shards.len() {
            return Err(IdesError::InvalidInput(format!(
                "need one pinned snapshot per shard: got {}, engine has {}",
                snaps.len(),
                self.shards.len()
            )));
        }
        let r = self.resolve(a, b);
        self.reads.serve(1, || {
            pair_estimate(&snaps[r.shard_a], r.a, &snaps[r.shard_b], r.b)
        })
    }

    /// Pins every shard's snapshot (last shard outermost) and runs `f`
    /// on the resulting list.
    fn with_all_pinned<R>(
        shards: &[Shard],
        rest: Option<&PinnedShards<'_>>,
        f: &mut dyn FnMut(&PinnedShards<'_>) -> R,
    ) -> R {
        let (last, init) = shards.split_last().expect("at least one shard");
        last.snapshot.with(|snap| {
            let pinned = PinnedShards { snap, rest };
            if init.is_empty() {
                f(&pinned)
            } else {
                Self::with_all_pinned(init, Some(&pinned), f)
            }
        })
    }

    /// Answers a batch of pair queries against one consistent cross-shard
    /// view — every shard pinned once for the whole batch — appending to
    /// `out`.
    pub fn estimate_batch(&self, pairs: &[(NodeId, NodeId)], out: &mut Vec<f64>) -> Result<()> {
        out.reserve(pairs.len());
        self.reads.serve(pairs.len() as u64, || {
            Self::with_all_pinned(&self.shards, None, &mut |pinned| {
                for &(a, b) in pairs {
                    let r = self.resolve(a, b);
                    out.push(pair_estimate(
                        pinned.shard(r.shard_a),
                        r.a,
                        pinned.shard(r.shard_b),
                        r.b,
                    )?);
                }
                Ok(())
            })
        })
    }

    /// Runs `work` once on each of the first `shards` shards (at least
    /// one) through [`kernels::fan_out`], returning the results in shard
    /// order: one shard on the calling thread, two or more concurrently
    /// on scoped threads of their own — so a one-shard call never spawns,
    /// and shards left out cost nothing.
    fn fan_out<R: Send>(&self, shards: usize, work: impl Fn(usize, &Shard) -> R + Sync) -> Vec<R> {
        debug_assert!((1..=self.shards.len()).contains(&shards));
        kernels::fan_out(0..shards, |i| {
            let prev = tm::set_shard(i as u32);
            let r = work(i, &self.shards[i]);
            tm::set_shard(prev);
            r
        })
    }

    /// Validates one host's measurements, routes it to the next shard
    /// (round-robin) and admits it there through `admit`.
    fn admit_one(
        &self,
        d_out: &[f64],
        d_in: &[f64],
        admit: impl FnOnce(&Shard) -> Result<usize>,
    ) -> Result<NodeId> {
        if d_out.len() != self.k || d_in.len() != self.k {
            return Err(IdesError::InvalidInput(format!(
                "expected {} out/in measurements, got {}/{}",
                self.k,
                d_out.len(),
                d_in.len()
            )));
        }
        Self::check_values(d_out, d_in)?;
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        Ok(self.host_id(shard, admit(&self.shards[shard])?))
    }

    /// The one scan of a call's measurement values — every one finite and
    /// nonnegative — which the shards do not repeat. Branch-free (no early
    /// exit) so it vectorizes; NaN fails the range test.
    fn check_values(d_out: &[f64], d_in: &[f64]) -> Result<()> {
        let valid = |values: &[f64]| {
            values
                .iter()
                .fold(true, |ok, v| ok & (0.0..f64::INFINITY).contains(v))
        };
        if valid(d_out) && valid(d_in) {
            Ok(())
        } else {
            Err(IdesError::InvalidInput(
                "measurements must be finite and nonnegative".into(),
            ))
        }
    }

    /// Admits a host through the next shard's **group commit**
    /// (round-robin): an idle shard solves and publishes it at once, and
    /// joiners that arrive while the shard's writer is busy are solved as
    /// one batched cached-Gram system and published once (see the
    /// [service docs](crate::service)). Returns the host's [`NodeId`].
    pub fn join(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        self.admit_one(d_out, d_in, |shard| shard.join(d_out, d_in))
    }

    /// Admits a host **without** coalescing: one writer-lock acquisition,
    /// one batch-of-1 cached solve, one snapshot publish — the reference
    /// the coalescer bit-identity tests compare against, and the control
    /// of the admission benches (same writer, same solver, no batching).
    /// Bit-identical to the coalesced path.
    pub fn join_direct(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        self.admit_one(d_out, d_in, |shard| {
            Ok(shard.flush_rows(RowBatch::contiguous(1, d_out, d_in))?[0])
        })
    }

    /// Bulk admission: joins every row of `d_out`/`d_in` (hosts × k) —
    /// the mass-arrival path that makes admitting 10⁶ hosts a handful of
    /// publishes instead of 10⁶. Row `r` goes to shard `r % N`; each
    /// shard reads its rows straight out of the batch, solves them with
    /// **one** batched cached solve and publishes **once**, all shards
    /// concurrently. Within a shard the first rows reuse its retired slots
    /// and the rest grow its tables, with one reservation per measurement
    /// table and the coordinates appended as whole leaves, so the bulk
    /// path costs its tiled solve plus one copy of each row. Bit-identical
    /// per row — slots and coordinates — to as many
    /// [`ShardedEngine::join_direct`] calls. The whole batch is validated
    /// first: on any bad value no shard admits anything. Returns global
    /// ids in row order.
    pub fn join_many(&self, d_out: &Matrix, d_in: &Matrix) -> Result<Vec<NodeId>> {
        if d_out.shape() != d_in.shape() || d_out.cols() != self.k {
            return Err(IdesError::InvalidInput(format!(
                "measurement batch must be hosts x {}: out {:?}, in {:?}",
                self.k,
                d_out.shape(),
                d_in.shape()
            )));
        }
        Self::check_values(d_out.as_slice(), d_in.as_slice())?;
        let (rows, n) = (d_out.rows(), self.shards.len());
        if rows == 0 {
            return Ok(Vec::new());
        }
        // Row `r` is dealt to shard `r % n`: only the first `rows` shards
        // of a short batch have work, and only they run.
        let per_shard = self.fan_out(rows.min(n), |first, shard| {
            shard.flush_rows(RowBatch {
                d_out: d_out.as_slice(),
                d_in: d_in.as_slice(),
                rows: HostRows::Strided {
                    first,
                    step: n,
                    len: rows.saturating_sub(first).div_ceil(n),
                },
            })
        });
        let mut slots = Vec::with_capacity(n);
        for shard_slots in per_shard {
            slots.push(shard_slots?.into_iter());
        }
        Ok((0..rows)
            .map(|r| {
                let slot = slots[r % n].next().expect("one slot per dealt row");
                self.host_id(r % n, slot)
            })
            .collect())
    }

    /// Retires an admitted host: its slot joins its shard's free list (no
    /// reallocation — the next admission there reuses it) and a new
    /// snapshot without the host is published.
    pub fn leave(&self, host: NodeId) -> Result<()> {
        self.leave_many(&[host])
    }

    /// Retires a batch of hosts with **one** snapshot publish per
    /// involved shard (the churn analogue of the join coalescer: a
    /// departure wave costs a pointer swap per shard, not one per host).
    /// Validates the whole batch first, holding the involved shards'
    /// writer locks (taken in ascending shard order): on any landmark,
    /// dead or repeated id nothing is retired on any shard.
    pub fn leave_many(&self, hosts: &[NodeId]) -> Result<()> {
        let n = self.shards.len();
        let mut slots = Vec::with_capacity(hosts.len());
        for &host in hosts {
            let NodeId::Host(g) = host else {
                return Err(IdesError::InvalidInput(
                    "landmarks cannot leave the service".into(),
                ));
            };
            slots.push((g % n, g / n));
        }
        // Shard-major, so the writer locks below are taken in ascending
        // shard order; a repeated id ends up next to itself.
        slots.sort_unstable();
        if let Some(twice) = slots.windows(2).find(|w| w[0] == w[1]) {
            return Err(unknown_node(self.host_id(twice[0].0, twice[0].1)));
        }
        let mut locked = Vec::new();
        for group in slots.chunk_by(|a, b| a.0 == b.0) {
            let shard = group[0].0;
            let w = self.shards[shard].writer.lock();
            if let Some(&(_, dead)) = group.iter().find(|&&(_, slot)| !w.hosts.is_live(slot)) {
                return Err(unknown_node(self.host_id(shard, dead)));
            }
            locked.push((shard, w, group));
        }
        for (shard, mut w, group) in locked {
            self.shards[shard].retire(&mut w, group.iter().map(|&(_, slot)| slot));
        }
        Ok(())
    }

    /// Applies one drift epoch: the landmark step
    /// ([`StreamingServer::apply_epoch`] — absorb or refresh per the
    /// staleness policy) runs **once** on the engine's server, then every
    /// shard concurrently re-joins its admitted hosts against the updated
    /// model and publishes. Queries keep being served from the previous
    /// snapshots until the publishes land.
    pub fn apply_epoch(&self, update: &EpochUpdate) -> Result<EpochOutcome> {
        let t0 = tm::enabled().then(Instant::now);
        let outcomes = self.apply_epochs(std::slice::from_ref(update));
        if let Some(t0) = t0 {
            tm::time(tm::Timer::EpochApply, t0.elapsed());
        }
        Ok(outcomes?.pop().expect("one outcome per epoch"))
    }

    /// Applies a batch of drift epochs: the landmark steps run back to
    /// back on the engine's server, then every shard re-joins **once**,
    /// against the final model, and publishes once. A rejoin is a pure
    /// function of the model and the stored measurement rows, so the
    /// final published state is **bit-identical** to calling
    /// [`ShardedEngine::apply_epoch`] once per update; the intermediate
    /// rejoins and snapshots simply never happen. If an update is
    /// rejected (it then changes nothing), the epochs before it stay
    /// applied and are rejoined and published (as they would be after
    /// that many `apply_epoch` calls) and the error is returned.
    ///
    /// The server lock is held to the last shard's publish: concurrent
    /// epoch writers serialize here, so every shard installs their models
    /// in the same order.
    pub fn apply_epochs(&self, updates: &[EpochUpdate]) -> Result<Vec<EpochOutcome>> {
        let mut server = self.server.lock();
        let prev_epoch = tm::set_epoch(server.epoch());
        let mut outcomes = Vec::with_capacity(updates.len());
        let mut result = Ok(());
        for update in updates {
            tm::set_epoch(update.epoch);
            match server.apply_epoch(update) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if !outcomes.is_empty() {
            let applied = outcomes.len() as u64;
            self.epochs.fetch_add(applied, Ordering::Relaxed);
            tm::count_n(tm::Counter::Epochs, applied);
            let (model, epoch) = (server.landmark_model(), server.epoch());
            // The epoch label rides into each shard's thread, so its
            // rejoin and publish spans carry the epoch they publish.
            let rejoined = self.fan_out(self.shards.len(), |_, shard| {
                let prev = tm::set_epoch(epoch);
                let done = shard.rejoin_all(model, epoch);
                tm::set_epoch(prev);
                done
            });
            result = rejoined.into_iter().collect::<Result<()>>().and(result);
        }
        tm::set_epoch(prev_epoch);
        result.map(|()| outcomes)
    }

    /// A live host's `(outgoing, incoming)` coordinate rows, read from
    /// its shard's current snapshot (the bit-identity tests compare these
    /// across shard counts).
    pub fn host_coords(&self, host: NodeId) -> Result<(Vec<f64>, Vec<f64>)> {
        let shard = self.owner(host).ok_or_else(|| {
            IdesError::InvalidInput("landmark coordinates live in the model".into())
        })?;
        let local = self.to_local(host);
        self.shards[shard].snapshot.with(|snap| {
            Ok((
                snap.outgoing_of(local)?.to_vec(),
                snap.incoming_of(local)?.to_vec(),
            ))
        })
    }

    /// Counter snapshot plus the instantaneous gauges: queries served;
    /// joins, flushes, leaves, coalescer queue depth, the latest
    /// publishes' chunk sharing and the stored measurement bytes summed
    /// across shards; `epochs` counts the engine's landmark steps;
    /// `version` sums the shards' snapshot versions (total publishes).
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats {
            queries: self.reads.queries(),
            epochs: self.epochs.load(Ordering::Relaxed),
            ..self.shards[0].stats()
        };
        for st in self.shards[1..].iter().map(Shard::stats) {
            total.joins += st.joins;
            total.flushes += st.flushes;
            total.leaves += st.leaves;
            total.version += st.version;
            total.coalescer_depth += st.coalescer_depth;
            total.chunk_shared += st.chunk_shared;
            total.chunk_total += st.chunk_total;
            total.measurement_bytes += st.measurement_bytes;
        }
        total
    }

    /// Per-shard write-side counter snapshots (shard imbalance
    /// observability; `queries` and `epochs` are engine-level and read 0
    /// here).
    #[cfg(test)]
    pub fn shard_stats(&self) -> Vec<ServiceStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Measurement tables each shard holds: 1 while every row it stored
    /// was symmetric, 2 after the first asymmetric one.
    #[cfg(test)]
    fn measurement_tables(&self) -> Vec<usize> {
        let tables = |s: &Shard| 1 + s.writer.lock().hosts.meas_in.is_some() as usize;
        self.shards.iter().map(tables).collect()
    }

    /// Publish-latency histogram (one sample per snapshot publish: join
    /// flushes, leaves, drift epochs), merged across every shard.
    pub fn publish_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&s.publish_hist.lock());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{MeasurementDelta, StalenessPolicy};

    fn server(k: usize, dim: usize) -> StreamingServer {
        let ds = ides_datasets::generators::p2psim_like(k + 20, 7).expect("dataset");
        let sub: Vec<usize> = (0..k).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        StreamingServer::new(&lm, dim, StalenessPolicy::default()).expect("server")
    }

    const SHARD_COUNTS: [usize; 3] = [1, 2, 3];

    fn engine(k: usize, dim: usize, shards: usize) -> ShardedEngine {
        ShardedEngine::new(server(k, dim), shards, ServiceConfig::default()).expect("engine")
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
    fn ids_round_trip_across_shards() {
        let e = engine(10, 4, 3);
        assert_eq!(e.shard_count(), 3);
        let ids: Vec<NodeId> = (0..7)
            .map(|i| e.join_direct(&meas(10, i), &meas(10, 100 + i)).unwrap())
            .collect();
        // Round-robin routing: consecutive joins land on consecutive
        // shards, and ids decode back to their shard.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(e.shard_of(id), i % 3, "join {i} routed unexpectedly");
            let (o, inn) = e.host_coords(id).expect("coords");
            assert_eq!(o.len(), 4);
            assert_eq!(inn.len(), 4);
            assert!(e.estimate(id, NodeId::Landmark(0)).unwrap().is_finite());
        }
        // Population is balanced within one host.
        let per_shard: Vec<usize> = e.shard_stats().iter().map(|s| s.joins as usize).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 7);
        assert!(per_shard.iter().all(|&c| (2..=3).contains(&c)));
        // Leave frees the right shard-local slot.
        e.leave(ids[4]).unwrap();
        assert!(e.estimate(ids[4], NodeId::Landmark(0)).is_err());
        assert!(e.estimate(ids[5], NodeId::Landmark(0)).is_ok());
    }

    #[test]
    fn landmark_estimates_match_the_model_on_every_shard_and_read_form() {
        for shards in SHARD_COUNTS {
            let e = engine(12, 4, shards);
            let snaps = e.snapshots();
            assert_eq!(snaps.len(), shards);
            for snap in &snaps {
                assert_eq!(snap.version(), 0);
                assert_eq!(snap.landmark_count(), 12);
                assert_eq!(snap.host_count(), 0);
            }
            // Shared model: a landmark-landmark estimate is the model's dot
            // product, equal from every shard's snapshot bit for bit, and
            // every read form — live, caller-pinned, batched — returns it
            // and counts its queries.
            let pair = (NodeId::Landmark(2), NodeId::Landmark(7));
            let model = snaps[0].model();
            let want = ides_mf::FactorModel::dot(model.outgoing(2), model.incoming(7));
            let mut got = vec![
                e.estimate(pair.0, pair.1).unwrap(),
                e.estimate_on(&snaps, pair.0, pair.1).unwrap(),
            ];
            e.estimate_batch(&[pair, pair, pair], &mut got).unwrap();
            got.extend(snaps.iter().map(|s| s.estimate(pair.0, pair.1).unwrap()));
            assert_eq!(got.len(), 5 + shards);
            for g in got {
                assert_eq!(g.to_bits(), want.to_bits(), "{shards} shards");
            }
            let stats = e.stats();
            assert_eq!(stats.queries, 5);
            assert_eq!(stats.cache_hits, 0, "no cache: field kept, always 0");
            // Unknown endpoints are rejected.
            assert!(e
                .estimate(NodeId::Landmark(99), NodeId::Landmark(0))
                .is_err());
            assert!(e.estimate(NodeId::Host(0), NodeId::Landmark(0)).is_err());
            assert!(e
                .estimate_batch(&[pair, (NodeId::Host(0), pair.1)], &mut Vec::new())
                .is_err());
        }
    }

    #[test]
    fn join_many_matches_individual_joins() {
        let k = 10;
        let rows = 11;
        let out_rows: Vec<Vec<f64>> = (0..rows).map(|i| meas(k, 1000 + i as u64)).collect();
        let in_rows: Vec<Vec<f64>> = (0..rows).map(|i| meas(k, 2000 + i as u64)).collect();
        let d_out = Matrix::from_rows(&out_rows).unwrap();
        let d_in = Matrix::from_rows(&in_rows).unwrap();
        for shards in SHARD_COUNTS {
            let (bulk, single) = (engine(k, 4, shards), engine(k, 4, shards));
            let ids = bulk.join_many(&d_out, &d_in).unwrap();
            assert_eq!(ids.len(), rows);
            let one_by_one: Vec<NodeId> = (0..rows)
                .map(|i| single.join_direct(&out_rows[i], &in_rows[i]).unwrap())
                .collect();
            // Same routing (round-robin from a fresh engine) and
            // bit-identical coordinates row for row.
            for (a, b) in ids.iter().zip(one_by_one.iter()) {
                assert_eq!(a, b);
                let (ao, ai) = bulk.host_coords(*a).unwrap();
                let (bo, bi) = single.host_coords(*b).unwrap();
                for j in 0..4 {
                    assert_eq!(ao[j].to_bits(), bo[j].to_bits());
                    assert_eq!(ai[j].to_bits(), bi[j].to_bits());
                }
            }
            // Bulk admission cost: one flush per involved shard.
            assert_eq!(bulk.stats().flushes, shards as u64);
            assert_eq!(bulk.stats().joins, rows as u64);
        }
    }

    #[test]
    fn a_bulk_join_mixing_reuse_and_growth_matches_individual_joins() {
        // Each shard starts with a partial last leaf and three retired
        // slots, so one batch reuses slots (most recently retired first)
        // and then grows its tables across leaf boundaries. Ids, their
        // order and every coordinate bit must be those of one
        // `join_direct` per row; snapshots pinned before the batch must
        // keep every row and flag.
        use ides_linalg::chunked::CHUNK_ROWS;
        let (k, rows) = (10, 150);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let out_rows: Vec<Vec<f64>> = (0..rows).map(|i| meas(k, 3000 + i as u64)).collect();
        let in_rows: Vec<Vec<f64>> = (0..rows).map(|i| meas(k, 4000 + i as u64)).collect();
        let d_out = Matrix::from_rows(&out_rows).unwrap();
        let d_in = Matrix::from_rows(&in_rows).unwrap();
        for shards in [1, 2] {
            let (bulk, single) = (engine(k, 4, shards), engine(k, 4, shards));
            let resident = shards * (CHUNK_ROWS + 9);
            for e in [&bulk, &single] {
                let ids: Vec<NodeId> = (0..resident as u64)
                    .map(|h| e.join_direct(&meas(k, h), &meas(k, 500 + h)).unwrap())
                    .collect();
                // Three retired slots per shard, the last of them first in
                // line for reuse.
                let gone = [3, CHUNK_ROWS + 2, 1].map(|i| i * shards);
                let gone: Vec<NodeId> = gone
                    .iter()
                    .flat_map(|&i| ids[i..i + shards].iter().copied())
                    .collect();
                e.leave_many(&gone).unwrap();
            }
            let pinned = bulk.snapshots();
            let seen = |snaps: &[Arc<Snapshot>]| -> Vec<Vec<(Vec<u64>, bool)>> {
                snaps
                    .iter()
                    .map(|snap| {
                        (0..CHUNK_ROWS + 9)
                            .map(|s| (bits(snap.coords().row(s)), snap.is_live(s)))
                            .collect()
                    })
                    .collect()
            };
            let before = seen(&pinned);

            let ids = bulk.join_many(&d_out, &d_in).unwrap();
            let one_by_one: Vec<NodeId> = (0..rows)
                .map(|i| single.join_direct(&out_rows[i], &in_rows[i]).unwrap())
                .collect();
            assert_eq!(ids, one_by_one, "{shards} shards");
            for id in &ids {
                let (got, want) = (
                    bulk.host_coords(*id).unwrap(),
                    single.host_coords(*id).unwrap(),
                );
                assert_eq!(
                    bits(&got.0),
                    bits(&want.0),
                    "{shards} shards: {id:?} outgoing"
                );
                assert_eq!(
                    bits(&got.1),
                    bits(&want.1),
                    "{shards} shards: {id:?} incoming"
                );
            }
            for (now, then) in bulk.snapshots().iter().zip(&pinned) {
                assert_eq!(now.slot_count(), then.slot_count() + rows / shards - 3);
                assert_eq!(now.host_count(), then.host_count() + rows / shards);
            }
            assert_eq!(
                seen(&pinned),
                before,
                "{shards} shards: a pinned snapshot changed"
            );
        }
    }

    #[test]
    fn every_read_form_agrees_counts_its_queries_and_checks_its_pins() {
        let e = engine(10, 4, 3);
        let ids: Vec<NodeId> = (0..7)
            .map(|i| e.join_direct(&meas(10, i), &meas(10, 100 + i)).unwrap())
            .collect();
        // Same-shard, cross-shard, host–landmark and landmark–landmark.
        let pairs = [
            (ids[0], ids[3]),
            (ids[0], ids[1]),
            (ids[5], ids[2]),
            (ids[4], NodeId::Landmark(3)),
            (NodeId::Landmark(9), ids[6]),
            (NodeId::Landmark(1), NodeId::Landmark(2)),
        ];
        let singles: Vec<f64> = pairs
            .iter()
            .map(|&(a, b)| e.estimate(a, b).unwrap())
            .collect();
        let held = e.snapshots();
        let mut batch = vec![f64::NAN]; // appended to, not cleared
        e.estimate_batch(&pairs, &mut batch).unwrap();
        assert_eq!(batch.len(), 1 + pairs.len());
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let on = e.estimate_on(&held, a, b).unwrap();
            assert_eq!(on.to_bits(), singles[i].to_bits(), "pair {i}: pinned");
            assert_eq!(
                batch[1 + i].to_bits(),
                singles[i].to_bits(),
                "pair {i}: batch"
            );
        }
        let stats = e.stats();
        assert_eq!(stats.queries, 3 * pairs.len() as u64);
        assert_eq!(stats.cache_hits, 0);
        // Reads count on the sharded engine, not on its per-shard engines.
        assert!(e.shard_stats().iter().all(|st| st.queries == 0));
        // A pinned set of the wrong size is refused, not a panic.
        let err = e.estimate_on(&held[..2], ids[0], ids[1]).unwrap_err();
        assert!(matches!(err, IdesError::InvalidInput(_)), "got {err:?}");
    }

    /// Everything a rejected write must leave untouched: the counters
    /// (queries aside — probing counts), every shard's live-host count,
    /// and every estimate over `ids` and a landmark, as raw bits (`None`
    /// where an endpoint is not live).
    fn observable_state(
        e: &ShardedEngine,
        ids: &[NodeId],
    ) -> (ServiceStats, Vec<usize>, Vec<Option<u64>>) {
        let stats = ServiceStats {
            queries: 0,
            ..e.stats()
        };
        let hosts = e.snapshots().iter().map(|s| s.host_count()).collect();
        let nodes: Vec<NodeId> = ids.iter().copied().chain([NodeId::Landmark(1)]).collect();
        let estimates = nodes
            .iter()
            .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
            .map(|(a, b)| e.estimate(a, b).ok().map(f64::to_bits))
            .collect();
        (stats, hosts, estimates)
    }

    #[test]
    fn rejected_batch_writes_change_nothing_on_any_shard() {
        let k = 10;
        for shards in SHARD_COUNTS {
            let e = engine(k, 4, shards);
            let ids: Vec<NodeId> = (0..6)
                .map(|i| e.join_direct(&meas(k, 50 + i), &meas(k, 80 + i)).unwrap())
                .collect();
            let before = observable_state(&e, &ids);

            // leave_many: a valid id ahead of a never-admitted id (on
            // another shard when there is one), a repeat, and a landmark.
            for bad in [
                vec![ids[0], NodeId::Host(99)],
                vec![ids[1], ids[2], ids[1]],
                vec![ids[3], NodeId::Landmark(0)],
            ] {
                let err = e.leave_many(&bad).unwrap_err();
                assert!(matches!(err, IdesError::InvalidInput(_)), "got {err:?}");
                assert_eq!(
                    observable_state(&e, &ids),
                    before,
                    "{shards} shards: {bad:?}"
                );
            }

            // join_many: one bad value in row 1 (dealt to shard 1 when
            // there is one) must keep row 0's shard from admitting too.
            let good = Matrix::from_rows(&[meas(k, 1), meas(k, 2), meas(k, 3)]).unwrap();
            for bad_value in [f64::NAN, f64::INFINITY, -1.0] {
                let mut bad = good.clone();
                bad[(1, 3)] = bad_value;
                for (d_out, d_in) in [(&bad, &good), (&good, &bad)] {
                    let err = e.join_many(d_out, d_in).unwrap_err();
                    assert!(matches!(err, IdesError::InvalidInput(_)), "got {err:?}");
                    assert_eq!(observable_state(&e, &ids), before, "{shards} shards");
                }
            }
            let short = Matrix::from_rows(&[meas(k, 1)]).unwrap();
            assert!(e.join_many(&good, &short).is_err());
            assert!(e.join_many(&short.transpose(), &short.transpose()).is_err());
            assert_eq!(observable_state(&e, &ids), before, "{shards} shards");

            // A valid wave retires with one publish per involved shard...
            let publishes = 4.min(shards) as u64;
            e.leave_many(&ids[..4]).unwrap();
            let after = e.stats();
            assert_eq!(after.version, before.0.version + publishes);
            assert_eq!(after.leaves, 4);
            let live: usize = e.snapshots().iter().map(|s| s.host_count()).sum();
            assert_eq!(live, 2);
            // ... its ids are dead from then on, and an empty batch is a
            // no-op (no publish).
            assert!(e.leave_many(&[ids[0]]).is_err());
            e.leave_many(&[]).unwrap();
            assert_eq!(e.stats().version, after.version);
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One host's measurement rows: (out, in).
    type Row = (Vec<f64>, Vec<f64>);

    /// `rows` as the two `rows × k` batch matrices.
    fn batch(rows: &[Row]) -> (Matrix, Matrix) {
        let side = |pick: fn(&Row) -> &Vec<f64>| {
            Matrix::from_rows(&rows.iter().map(|r| pick(r).clone()).collect::<Vec<_>>()).unwrap()
        };
        (side(|r| &r.0), side(|r| &r.1))
    }

    /// A symmetric row (round-trip times: out and in are the same bits).
    fn rtt(k: usize, seed: u64) -> Row {
        let row = meas(k, seed);
        (row.clone(), row)
    }

    /// The gauge's exact value for `e`: each shard's slots × `k` × 8 per
    /// measurement table it holds.
    fn expected_bytes(e: &ShardedEngine) -> u64 {
        let slots = e
            .snapshots()
            .iter()
            .map(|s| s.slot_count())
            .collect::<Vec<_>>();
        let tables = e.measurement_tables();
        let per_shard = slots.iter().zip(&tables).map(|(s, t)| s * e.k * 8 * t);
        per_shard.sum::<usize>() as u64
    }

    #[test]
    fn symmetric_admission_keeps_one_measurement_table() {
        // Every admission path — `join_direct`, a lone `join`, joins
        // coalesced from four threads, a `join_many` that grows and one
        // that reuses retired slots — stores symmetric rows in one table,
        // and the gauge counts it exactly. The first asymmetric row makes
        // its shard (only that one) hold two.
        let k = 10;
        for shards in [1, 2] {
            let e = engine(k, 4, shards);
            assert_eq!(e.stats().measurement_bytes, 0, "{shards} shards: empty");
            let mut ids: Vec<NodeId> = (0..5u64)
                .map(|h| {
                    let (o, i) = rtt(k, h);
                    e.join_direct(&o, &i).unwrap()
                })
                .collect();
            let (o, i) = rtt(k, 50);
            ids.push(e.join(&o, &i).unwrap());
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let e = &e;
                    scope.spawn(move || {
                        for j in 0..5 {
                            let (o, i) = rtt(k, 100 + 10 * t + j);
                            e.join(&o, &i).unwrap();
                        }
                    });
                }
            });
            let grown: Vec<_> = (0..7).map(|h| rtt(k, 200 + h)).collect();
            let (d_out, d_in) = batch(&grown);
            ids.extend(e.join_many(&d_out, &d_in).unwrap());
            e.leave_many(&ids[..2 * shards]).unwrap();
            let mixed: Vec<_> = (0..3 * shards as u64).map(|h| rtt(k, 300 + h)).collect();
            let (d_out, d_in) = batch(&mixed);
            e.join_many(&d_out, &d_in).unwrap();

            let slots: usize = e.snapshots().iter().map(|s| s.slot_count()).sum();
            assert_eq!(slots, 5 + 1 + 20 + 7 + shards, "{shards} shards");
            assert_eq!(e.measurement_tables(), vec![1; shards], "{shards} shards");
            assert_eq!(
                e.stats().measurement_bytes,
                (slots * k * 8) as u64,
                "{shards} shards: one table"
            );

            // The next join lands on shard `next % shards`, in a fresh slot.
            let owner = e.next.load(Ordering::Relaxed) % shards;
            let (o, mut i) = rtt(k, 400);
            i[0] += 1.0;
            e.join_direct(&o, &i).unwrap();
            let mut want = vec![1; shards];
            want[owner] = 2;
            assert_eq!(e.measurement_tables(), want, "{shards} shards");
            let per_shard: Vec<usize> = e.snapshots().iter().map(|s| s.slot_count()).collect();
            let bytes = (0..shards)
                .map(|s| per_shard[s] * k * 8 * want[s])
                .sum::<usize>();
            assert_eq!(e.stats().measurement_bytes, bytes as u64, "{shards} shards");
        }
    }

    #[test]
    fn an_asymmetric_host_after_symmetric_ones_matches_fresh_engines() {
        // Symmetric hosts, some retired, then one asymmetric host: either
        // alone into a retired slot, or inside a `join_many` that reuses
        // every retired slot and then grows — as its shard's first fresh
        // row, with more rows after it in the same flush. Every live host
        // must hold the bits a fresh engine gives its rows, before and
        // after an epoch: an in-table that lost the symmetric rows stored
        // before the transition shows up in the epoch's rejoin.
        let k = 10;
        let drift = EpochUpdate {
            epoch: 1.0,
            deltas: vec![MeasurementDelta {
                from: 2,
                to: 7,
                rtt: 14.0,
            }],
        };
        let mut asym = meas(k, 900);
        asym[4] = 3.5;
        let asym = (meas(k, 900), asym);
        for shards in [1, 2] {
            for into_retired in [true, false] {
                let label = format!("{shards} shards, into a retired slot: {into_retired}");
                let e = engine(k, 4, shards);
                let mut live: Vec<(NodeId, Row)> = Vec::new();
                let first: Vec<_> = (0..20).map(|h| rtt(k, h)).collect();
                let (d_out, d_in) = batch(&first);
                let ids = e.join_many(&d_out, &d_in).unwrap();
                live.extend(ids.into_iter().zip(first));
                // Three retired slots per shard.
                let gone: Vec<NodeId> = live.drain(..3 * shards).map(|(id, _)| id).collect();
                e.leave_many(&gone).unwrap();
                let arrivals = if into_retired {
                    vec![asym.clone()]
                } else {
                    // Rows `0 .. 3 · shards` reuse; row `3 · shards` is
                    // shard 0's first fresh slot, and `4 · shards` follows it.
                    let mut rows: Vec<_> =
                        (0..5 * shards as u64).map(|h| rtt(k, 500 + h)).collect();
                    rows[3 * shards] = asym.clone();
                    rows
                };
                let ids = if into_retired {
                    vec![e.join(&asym.0, &asym.1).unwrap()]
                } else {
                    let (d_out, d_in) = batch(&arrivals);
                    e.join_many(&d_out, &d_in).unwrap()
                };
                // Retired slots are reused first, so a host that did not
                // get one got a fresh slot.
                let asym_id = ids[if into_retired { 0 } else { 3 * shards }];
                assert_eq!(gone.contains(&asym_id), into_retired, "{label}");
                live.extend(ids.into_iter().zip(arrivals));
                assert!(e.measurement_tables().contains(&2), "{label}");

                let check = |epoch: Option<&EpochUpdate>, when: &str| {
                    let fresh = engine(k, 4, 1);
                    let want: Vec<NodeId> = live
                        .iter()
                        .map(|(_, (o, i))| fresh.join_direct(o, i).unwrap())
                        .collect();
                    if let Some(update) = epoch {
                        fresh.apply_epoch(update).unwrap();
                    }
                    for ((id, _), w) in live.iter().zip(want) {
                        let (got, want) =
                            (e.host_coords(*id).unwrap(), fresh.host_coords(w).unwrap());
                        assert_eq!(bits(&got.0), bits(&want.0), "{label} {when}: {id:?} out");
                        assert_eq!(bits(&got.1), bits(&want.1), "{label} {when}: {id:?} in");
                    }
                };
                check(None, "admitted");
                e.apply_epoch(&drift).unwrap();
                check(Some(&drift), "after the epoch");
                assert_eq!(e.stats().measurement_bytes, expected_bytes(&e), "{label}");
            }
        }
    }

    #[test]
    fn a_snapshot_pinned_before_the_transition_keeps_its_bits() {
        let k = 10;
        let e = engine(k, 4, 2);
        let first: Vec<_> = (0..40).map(|h| rtt(k, h)).collect();
        let (d_out, d_in) = batch(&first);
        let ids = e.join_many(&d_out, &d_in).unwrap();
        e.leave_many(&ids[..4]).unwrap();
        let pinned = e.snapshots();
        let seen = |snaps: &[Arc<Snapshot>]| -> Vec<(Vec<u64>, bool)> {
            snaps
                .iter()
                .flat_map(|snap| {
                    (0..snap.slot_count()).map(|s| (bits(snap.coords().row(s)), snap.is_live(s)))
                })
                .collect()
        };
        let before = seen(&pinned);
        // Both shards go asymmetric: one through a retired slot, one
        // through a bulk batch that reuses and grows; then an epoch
        // rewrites every row.
        let (o, mut i) = rtt(k, 77);
        i[1] += 2.0;
        e.join(&o, &i).unwrap();
        let mut rows: Vec<_> = (0..6).map(|h| rtt(k, 600 + h)).collect();
        rows[5].1[0] += 1.0;
        let (d_out, d_in) = batch(&rows);
        e.join_many(&d_out, &d_in).unwrap();
        assert_eq!(e.measurement_tables(), vec![2, 2]);
        e.apply_epoch(&EpochUpdate {
            epoch: 1.0,
            deltas: vec![MeasurementDelta {
                from: 1,
                to: 4,
                rtt: 11.0,
            }],
        })
        .unwrap();
        assert_ne!(seen(&e.snapshots()), before, "the writes must move rows");
        assert_eq!(seen(&pinned), before, "a pinned snapshot changed");
    }

    #[test]
    fn signed_zeros_are_stored_as_asymmetric() {
        // `0.0 == -0.0`, but they are different bits: a row pair that
        // differs only there is asymmetric, and the in-table keeps the
        // `-0.0` it was given. A row with the same zero both ways is not.
        let k = 10;
        let e = engine(k, 4, 1);
        let (mut o, mut i) = rtt(k, 5);
        (o[3], i[3]) = (0.0, 0.0);
        e.join_direct(&o, &i).unwrap();
        assert_eq!(e.measurement_tables(), vec![1]);
        i[3] = -0.0;
        e.join_direct(&o, &i).unwrap();
        assert_eq!(e.measurement_tables(), vec![2]);
        let w = e.shards[0].writer.lock();
        let meas_in = w.hosts.meas_in.as_ref().expect("an in-table");
        assert_eq!(meas_in.row(1)[3].to_bits(), (-0.0f64).to_bits());
        assert_eq!(meas_in.row(0)[3].to_bits(), 0.0f64.to_bits());
        assert_eq!(w.hosts.meas_out.row(1)[3].to_bits(), 0.0f64.to_bits());
    }

    /// `fan_out` is the only way `join_many`, `apply_epoch` and
    /// `apply_epochs` reach a shard, and it hands the first `r` shards to
    /// `kernels::fan_out` (whose thread placement that crate tests): so a
    /// bulk admission shorter than the shard count touches only the
    /// shards its rows are dealt to.
    #[test]
    fn short_bulk_admission_runs_only_the_dealt_shards() {
        for shards in SHARD_COUNTS {
            let e = engine(10, 4, shards);
            for active in 1..=shards {
                let ran = e.fan_out(active, |i, _| i);
                assert_eq!(ran, (0..active).collect::<Vec<_>>(), "{shards} shards");
            }
            let rows = Matrix::from_rows(&[meas(10, 1)]).unwrap();
            e.join_many(&rows, &rows).unwrap();
            let flushed: Vec<u64> = e.shard_stats().iter().map(|s| s.flushes).collect();
            let mut want = vec![0; shards];
            want[0] = 1;
            assert_eq!(flushed, want, "{shards} shards");
        }
    }
}
