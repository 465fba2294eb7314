//! Horizontal sharding: serve millions of hosts from `N` single-writer
//! engines that replicate the small global landmark model.
//!
//! The paper's information-server state has exactly the shape that
//! shards: the landmark factor model is tiny (`k × d`, global, slowly
//! drifting) while the admitted-host coordinate table dominates and is
//! embarrassingly partitionable — a host's coordinates depend only on its
//! own measurement rows and the landmark model (Eq. 11/12), never on
//! other hosts. [`ShardedEngine`] therefore:
//!
//! * **Replicates** the landmark model: every shard wraps its own
//!   [`QueryEngine`] over a clone of the same [`StreamingServer`], and a
//!   drift epoch is applied to every replica. Replicas run identical
//!   arithmetic on identical inputs, so they stay **bit-identical** —
//!   a landmark row can be read from any shard.
//! * **Partitions** the hosts round-robin: global host id `g` lives on
//!   shard `g % N` at local slot `g / N`. Joins route round-robin, so
//!   shard populations stay balanced within one host.
//! * **Writes concurrently**: each shard owns its coalescer, writer lock,
//!   and snapshot cell, so joins/leaves on different shards never
//!   contend. Drift epochs fan out across shards on scoped threads.
//! * **Reads lock-free**: an estimate pins each endpoint's shard snapshot
//!   (one pin when both rows live on one shard, two otherwise) and dots
//!   one coordinate row from each through the engines' shared read core
//!   — the same arithmetic as the single engine, hence bit-identical
//!   answers (property-tested in `tests/sharding_determinism.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ides_linalg::Matrix;

use crate::error::{IdesError, Result};
use crate::streaming::{EpochOutcome, EpochUpdate, StreamingServer};
use crate::telemetry as tm;

use super::metrics::{EpochPlanTotals, LatencyHistogram, ServiceStats};
use super::{
    pair_estimate, DistanceService, NodeId, QueryEngine, ReadPath, ServiceConfig, Snapshot,
};

/// A horizontally sharded serving engine (see the [module docs](self)).
/// Host ids returned by its join paths are **global** (`local · N +
/// shard`) and only meaningful to this engine.
pub struct ShardedEngine {
    shards: Vec<QueryEngine>,
    /// Round-robin admission router.
    next: AtomicUsize,
    /// Engine-level read path: estimates pin the shards' snapshot cells
    /// directly and count here, not on the per-shard engines.
    reads: ReadPath,
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
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Partitions a fitted [`StreamingServer`] across `shards` replicas
    /// (each shard gets a bit-identical clone of the landmark model and
    /// its own [`QueryEngine`] with `config`).
    pub fn new(server: StreamingServer, shards: usize, config: ServiceConfig) -> Result<Self> {
        if shards == 0 {
            return Err(IdesError::InvalidInput("need at least one shard".into()));
        }
        let mut engines = Vec::with_capacity(shards);
        for _ in 0..shards - 1 {
            engines.push(QueryEngine::new(server.clone(), config)?);
        }
        engines.push(QueryEngine::new(server, config)?);
        Ok(ShardedEngine {
            shards: engines,
            next: AtomicUsize::new(0),
            reads: ReadPath::default(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s engine (for per-shard observability).
    pub fn shard(&self, i: usize) -> &QueryEngine {
        &self.shards[i]
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.shards[0].landmark_count()
    }

    /// Which shard owns `node`'s coordinate row. Landmarks are replicated
    /// everywhere and report shard 0.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.owner(node).unwrap_or(0)
    }

    /// `Some(shard)` for hosts, `None` for (replicated) landmarks.
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

    /// Maps a shard-local id back to the global namespace.
    fn to_global(&self, shard: usize, node: NodeId) -> NodeId {
        match node {
            NodeId::Host(s) => NodeId::Host(s * self.shards.len() + shard),
            lm => lm,
        }
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

    /// Every shard's current snapshot as an owned `Arc` (one `ArcSwap`
    /// load each); answer queries against the returned vector via
    /// [`ShardedEngine::estimate_on`] for one consistent cross-shard view
    /// that outlives the call.
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Estimated distance from `a` to `b`: `a`'s outgoing row from its
    /// shard's snapshot dotted with `b`'s incoming row from its — the
    /// same Eq. 10 arithmetic as [`Snapshot::estimate`], so answers are
    /// bit-identical to a single engine holding all hosts. A
    /// host–landmark pair reads both rows from the host's shard (one
    /// pin, exactly like the single engine); only host–host pairs on
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
        shards: &[QueryEngine],
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

    /// Admits a host through the next shard's coalescer (round-robin).
    pub fn join(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        let shard = self.route();
        let local = self.shards[shard].join(d_out, d_in)?;
        Ok(self.to_global(shard, local))
    }

    /// Admits a host through the next shard's per-request control path.
    pub fn join_per_request(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        let shard = self.route();
        let local = self.shards[shard].join_per_request(d_out, d_in)?;
        Ok(self.to_global(shard, local))
    }

    /// Admits a host through the next shard's direct (uncoalesced) path.
    pub fn join_direct(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        let shard = self.route();
        let local = self.shards[shard].join_direct(d_out, d_in)?;
        Ok(self.to_global(shard, local))
    }

    fn route(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Bulk admission: rows are dealt round-robin (row `r` to shard
    /// `r % N`), each shard solves its sub-batch with one batched solve
    /// and one publish, and the sub-batches run **concurrently** on
    /// scoped threads. Returns global ids in row order.
    pub fn join_many(&self, d_out: &Matrix, d_in: &Matrix) -> Result<Vec<NodeId>> {
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].join_many(d_out, d_in);
        }
        if d_out.shape() != d_in.shape() {
            return Err(IdesError::InvalidInput(format!(
                "measurement batch shapes differ: out {:?}, in {:?}",
                d_out.shape(),
                d_in.shape()
            )));
        }
        let rows = d_out.rows();
        let k = d_out.cols();
        // Deal rows into per-shard sub-batches (shard `s` gets rows
        // `s, s + n, …`), each sized once up front.
        let deal = |d: &Matrix| -> Vec<Matrix> {
            (0..n)
                .map(|shard| {
                    let mut sub = Matrix::zeros(rows.saturating_sub(shard).div_ceil(n), k);
                    for i in 0..sub.rows() {
                        sub.set_row(i, d.row(i * n + shard));
                    }
                    sub
                })
                .collect()
        };
        let (sub_out, sub_in) = (deal(d_out), deal(d_in));
        let per_shard: Vec<Result<Vec<NodeId>>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (shard, (so, si)) in sub_out.iter().zip(sub_in.iter()).enumerate() {
                let engine = &self.shards[shard];
                handles.push(scope.spawn(move || {
                    let prev = tm::set_shard(shard as u32);
                    let r = engine.join_many(so, si);
                    tm::set_shard(prev);
                    r
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard join panicked"))
                .collect()
        });
        let mut locals: Vec<std::vec::IntoIter<NodeId>> = Vec::with_capacity(n);
        for r in per_shard {
            locals.push(r?.into_iter());
        }
        let mut ids = Vec::with_capacity(rows);
        for r in 0..rows {
            let shard = r % n;
            let local = locals[shard].next().expect("shard returned too few ids");
            ids.push(self.to_global(shard, local));
        }
        Ok(ids)
    }

    /// Retires a host on its owning shard.
    pub fn leave(&self, host: NodeId) -> Result<()> {
        let Some(shard) = self.owner(host) else {
            return Err(IdesError::InvalidInput(
                "landmarks cannot leave the service".into(),
            ));
        };
        self.shards[shard].leave(self.to_local(host))
    }

    /// Retires a batch of hosts, grouped so each involved shard publishes
    /// once.
    pub fn leave_many(&self, hosts: &[NodeId]) -> Result<()> {
        let n = self.shards.len();
        let mut by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &h in hosts {
            let Some(shard) = self.owner(h) else {
                return Err(IdesError::InvalidInput(
                    "landmarks cannot leave the service".into(),
                ));
            };
            by_shard[shard].push(self.to_local(h));
        }
        for (shard, batch) in by_shard.iter().enumerate() {
            self.shards[shard].leave_many(batch)?;
        }
        Ok(())
    }

    /// Applies one drift epoch to **every** shard replica, concurrently
    /// on scoped threads. Replicas run identical arithmetic, so their
    /// models stay bit-identical; the returned outcome is shard 0's
    /// (all shards' outcomes are equal).
    pub fn apply_epoch(&self, update: &EpochUpdate) -> Result<EpochOutcome> {
        if self.shards.len() == 1 {
            return self.shards[0].apply_epoch(update);
        }
        let outcomes: Vec<Result<EpochOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(shard, engine)| {
                    scope.spawn(move || {
                        let prev = tm::set_shard(shard as u32);
                        let r = engine.apply_epoch(update);
                        tm::set_shard(prev);
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard epoch panicked"))
                .collect()
        });
        let mut first = None;
        for o in outcomes {
            let o = o?;
            first.get_or_insert(o);
        }
        Ok(first.expect("at least one shard"))
    }

    /// Applies a batch of drift epochs to every shard replica,
    /// concurrently on scoped threads, with each replica running the
    /// cross-epoch pipeline ([`QueryEngine::apply_epochs`]): within a
    /// shard, epoch `N`'s host rejoins overlap epoch `N+1`'s landmark
    /// absorbs. Replicas run identical arithmetic, so their final models
    /// stay bit-identical; the returned outcomes are shard 0's.
    pub fn apply_epochs(&self, updates: &[EpochUpdate]) -> Result<Vec<EpochOutcome>> {
        if self.shards.len() == 1 {
            return self.shards[0].apply_epochs(updates);
        }
        let results: Vec<Result<Vec<EpochOutcome>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(shard, engine)| {
                    scope.spawn(move || {
                        let prev = tm::set_shard(shard as u32);
                        let r = engine.apply_epochs(updates);
                        tm::set_shard(prev);
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard epoch batch panicked"))
                .collect()
        });
        let mut first = None;
        for r in results {
            let r = r?;
            first.get_or_insert(r);
        }
        Ok(first.expect("at least one shard"))
    }

    /// A live host's `(outgoing, incoming)` coordinate rows, read from
    /// its shard's current snapshot (the bit-identity tests compare these
    /// against a single engine's table).
    pub fn host_coords(&self, host: NodeId) -> Result<(Vec<f64>, Vec<f64>)> {
        let shard = self.owner(host).ok_or_else(|| {
            IdesError::InvalidInput("landmark coordinates live in the model".into())
        })?;
        let snap = self.shards[shard].snapshot();
        let local = self.to_local(host);
        Ok((
            snap.outgoing_of(local)?.to_vec(),
            snap.incoming_of(local)?.to_vec(),
        ))
    }

    /// Aggregate counters: queries are engine-level (the sharded estimate
    /// path does not pass through the per-shard engines); joins, flushes,
    /// and leaves sum across shards; `epochs` is shard 0's count (every
    /// shard applies every epoch); `version` sums shard publish counts
    /// (total publishes).
    pub fn stats(&self) -> ServiceStats {
        let mut joins = 0;
        let mut flushes = 0;
        let mut leaves = 0;
        let mut version = 0;
        let mut coalescer_depth = 0;
        let mut chunk_shared = 0;
        let mut chunk_total = 0;
        let mut epochs = None;
        for s in &self.shards {
            let st = s.stats();
            epochs.get_or_insert(st.epochs);
            joins += st.joins;
            flushes += st.flushes;
            leaves += st.leaves;
            version += st.version;
            coalescer_depth += st.coalescer_depth;
            chunk_shared += st.chunk_shared;
            chunk_total += st.chunk_total;
        }
        ServiceStats {
            queries: self.reads.queries(),
            cache_hits: 0,
            joins,
            flushes,
            leaves,
            epochs: epochs.expect("at least one shard"),
            version,
            coalescer_depth,
            chunk_shared,
            chunk_total,
        }
    }

    /// Per-shard counter snapshots (shard imbalance observability).
    pub fn shard_stats(&self) -> Vec<ServiceStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Publish-latency histograms merged across every shard.
    pub fn publish_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&s.publish_latency());
        }
        merged
    }

    /// Epoch-plan totals merged across every shard replica (sums, with
    /// `max_width` the cross-shard high-water mark). Every shard executes
    /// its own plan of each epoch, so `epochs` counts shard-plans, not
    /// distinct drift epochs.
    pub fn epoch_plan_totals(&self) -> EpochPlanTotals {
        let mut merged = EpochPlanTotals::default();
        for s in &self.shards {
            merged.merge(&s.epoch_plan_totals());
        }
        merged
    }
}

impl DistanceService for ShardedEngine {
    fn landmark_count(&self) -> usize {
        ShardedEngine::landmark_count(self)
    }
    fn estimate(&self, a: NodeId, b: NodeId) -> Result<f64> {
        ShardedEngine::estimate(self, a, b)
    }
    fn join(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        ShardedEngine::join(self, d_out, d_in)
    }
    fn join_per_request(&self, d_out: &[f64], d_in: &[f64]) -> Result<NodeId> {
        ShardedEngine::join_per_request(self, d_out, d_in)
    }
    fn join_many(&self, d_out: &Matrix, d_in: &Matrix) -> Result<Vec<NodeId>> {
        ShardedEngine::join_many(self, d_out, d_in)
    }
    fn leave(&self, host: NodeId) -> Result<()> {
        ShardedEngine::leave(self, host)
    }
    fn apply_epoch(&self, update: &EpochUpdate) -> Result<EpochOutcome> {
        ShardedEngine::apply_epoch(self, update)
    }
    fn apply_epochs(&self, updates: &[EpochUpdate]) -> Result<Vec<EpochOutcome>> {
        ShardedEngine::apply_epochs(self, updates)
    }
    fn stats(&self) -> ServiceStats {
        ShardedEngine::stats(self)
    }
    fn epoch_plan_totals(&self) -> EpochPlanTotals {
        ShardedEngine::epoch_plan_totals(self)
    }
    fn current_epoch(&self) -> f64 {
        self.shards[0].snapshot().epoch()
    }
    fn publish_latency(&self) -> LatencyHistogram {
        ShardedEngine::publish_latency(self)
    }
    fn shard_count(&self) -> usize {
        ShardedEngine::shard_count(self)
    }
    fn shard_of(&self, node: NodeId) -> usize {
        ShardedEngine::shard_of(self, node)
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
        let e = ShardedEngine::new(server(10, 4), 3, ServiceConfig::default()).expect("engine");
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
    fn landmark_estimates_match_any_shard_replica() {
        let e = ShardedEngine::new(server(12, 4), 4, ServiceConfig::default()).expect("engine");
        // Replicated model: landmark-landmark estimates equal every
        // shard's own answer bit for bit.
        let want = e
            .estimate(NodeId::Landmark(2), NodeId::Landmark(9))
            .unwrap();
        for i in 0..4 {
            let shard_ans = e
                .shard(i)
                .estimate(NodeId::Landmark(2), NodeId::Landmark(9))
                .unwrap();
            assert_eq!(want.to_bits(), shard_ans.to_bits(), "shard {i} diverged");
        }
        // ... and drift keeps replicas in lockstep.
        e.apply_epoch(&EpochUpdate {
            epoch: 1.0,
            deltas: vec![
                MeasurementDelta {
                    from: 0,
                    to: 5,
                    rtt: 30.0,
                },
                MeasurementDelta {
                    from: 5,
                    to: 0,
                    rtt: 30.0,
                },
            ],
        })
        .unwrap();
        let after = e
            .estimate(NodeId::Landmark(0), NodeId::Landmark(5))
            .unwrap();
        for i in 0..4 {
            let shard_ans = e
                .shard(i)
                .estimate(NodeId::Landmark(0), NodeId::Landmark(5))
                .unwrap();
            assert_eq!(after.to_bits(), shard_ans.to_bits(), "shard {i} diverged");
        }
        assert_eq!(e.stats().epochs, 1);
    }

    #[test]
    fn join_many_matches_individual_joins() {
        let k = 10;
        let rows = 11;
        let bulk = ShardedEngine::new(server(k, 4), 3, ServiceConfig::default()).expect("engine");
        let single = ShardedEngine::new(server(k, 4), 3, ServiceConfig::default()).expect("engine");
        let out_rows: Vec<Vec<f64>> = (0..rows).map(|i| meas(k, 1000 + i as u64)).collect();
        let in_rows: Vec<Vec<f64>> = (0..rows).map(|i| meas(k, 2000 + i as u64)).collect();
        let d_out = Matrix::from_rows(&out_rows).unwrap();
        let d_in = Matrix::from_rows(&in_rows).unwrap();
        let ids = bulk.join_many(&d_out, &d_in).unwrap();
        assert_eq!(ids.len(), rows);
        let one_by_one: Vec<NodeId> = (0..rows)
            .map(|i| single.join_direct(&out_rows[i], &in_rows[i]).unwrap())
            .collect();
        // Same routing (round-robin from a fresh engine) and bit-identical
        // coordinates row for row.
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
        assert_eq!(bulk.stats().flushes, 3);
    }

    #[test]
    fn every_read_form_agrees_counts_its_queries_and_checks_its_pins() {
        let e = ShardedEngine::new(server(10, 4), 3, ServiceConfig::default()).expect("engine");
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
}
