//! Streaming coordinate maintenance under drift (deployment subsystem).
//!
//! IDES coordinates are computed once and reused; on the real Internet,
//! routes and congestion drift, so a long-running information server must
//! keep its landmark model fresh **without refitting from scratch** every
//! time a measurement changes. This module is that service layer:
//!
//! * [`UpdateQueue`] orders epoch-stamped [`EpochUpdate`] batches of
//!   landmark measurement deltas (fed, in the simulator, by
//!   `ides_netsim::drift::DriftStream` over the discrete-event queue).
//! * [`StreamingServer::apply_epoch`] ingests one batch and picks the
//!   cheapest maintenance tier under its [`StalenessPolicy`]:
//!   - **absorb** (drift-deviation at or below the threshold): the
//!     touched landmarks join the current model like hosts — one cached
//!     join over their rows of the landmark matrix and of its transpose,
//!     `O(k d + d²)` each — and the two join Grams are factored once from
//!     the new factors;
//!   - **refresh** (deviation above the threshold): a warm-start partial
//!     refit runs a bounded number of ALS sweeps from the current factors
//!     ([`ides_mf::als::refine`], reusing the allocation-free workspaces
//!     of the batch fit — an ALS half-step is itself a batched join), and
//!     the Grams are factored once. See
//!     [`StreamingServer::refresh_config`].
//! * Joins keep being served from the cached factorizations with **no
//!   factorization on the query path**: [`LandmarkModel::join_batch`] is
//!   one GEMM plus two triangular solves per host — bit-identical to the
//!   one-shot batched normal-equation join against the model's factors —
//!   and [`StreamingServer::rejoin`] re-joins only the hosts whose own
//!   measurements drifted. Both run the one tiled cached join (256 hosts
//!   at a time, measurement rows read in place, workers splitting on tile
//!   boundaries under the `parallel` feature — bit-identical at any tile
//!   boundary and worker count).
//!
//! **The model exists once, and never changes.** [`LandmarkModel`] is the
//! factors plus the two cached Gram factorizations every join solves
//! through, and nothing writes to it after it is built. The server holds
//! it behind an `Arc`; the serving engine's shards and their published
//! snapshots hold the same `Arc`. Every landmark step builds a new model
//! from its new factors and swaps the `Arc` whole, so a cached Gram is
//! always bit-identical to a fresh factorization of the factors beside
//! it, and a join or a publish never copies the model.
//!
//! The economics (see the `streaming_update` bench group): at 500 hosts a
//! full refit — cold ALS fit plus re-joining every host — costs well over
//! an order of magnitude more per epoch than absorbing the deltas and
//! re-joining only the affected hosts, while the accuracy stays within a
//! few percent of a fresh fit at drift amplitude 0.2 (the `streaming_update`
//! experiment binary measures the accuracy side).
//!
//! **An epoch is two calls.** The paper's drift epoch (§5.1, Eq. 11/12)
//! has two steps — the information server updates the landmark factors,
//! then every ordinary host is re-solved against them — and each is its
//! own call: [`StreamingServer::apply_epoch`] validates, applies the
//! deltas, picks the tier and refreshes or absorbs (serial: every changed
//! landmark is solved against the epoch-start model, then the new model
//! is factored and swapped in — or, on any error, the deltas are undone
//! and nothing changes); [`StreamingServer::rejoin`] re-solves the
//! hosts against whatever model the server then holds. The rejoin is a
//! pure function of that model and the hosts' measurement rows, so any
//! number of landmark steps may run before one rejoin.

mod executor;
mod tile;

pub use executor::RejoinTables;

pub(crate) use tile::{HostRows, TileScratch};

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ides_datasets::DistanceMatrix;
use ides_linalg::solve::CachedGram;
use ides_linalg::Matrix;
use ides_mf::als::{self, AlsConfig};
use ides_mf::FactorModel;

use crate::error::{IdesError, Result};

/// One changed landmark-to-landmark measurement: the RTT from landmark
/// `from` to landmark `to` is now `rtt` (indices into the landmark set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementDelta {
    /// Source landmark index.
    pub from: usize,
    /// Destination landmark index.
    pub to: usize,
    /// The newly measured RTT (milliseconds).
    pub rtt: f64,
}

/// An epoch-stamped batch of measurement deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochUpdate {
    /// The epoch the measurements were taken at.
    pub epoch: f64,
    /// The measurements that changed since the previous epoch.
    pub deltas: Vec<MeasurementDelta>,
}

/// Epoch-ordered queue of pending [`EpochUpdate`]s: updates pop in epoch
/// order with ties broken by insertion sequence, so replaying a measurement
/// stream is deterministic even when producers enqueue out of order.
#[derive(Debug, Default)]
pub struct UpdateQueue {
    heap: BinaryHeap<Queued>,
    seq: u64,
}

#[derive(Debug)]
struct Queued {
    update: EpochUpdate,
    seq: u64,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        // `total_cmp` keeps the order total for any stamp: a NaN sorts
        // after every number instead of comparing equal to all of them.
        other
            .update
            .epoch
            .total_cmp(&self.update.epoch)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl UpdateQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        UpdateQueue::default()
    }

    /// Number of pending updates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Epoch of the earliest pending update.
    pub fn next_epoch(&self) -> Option<f64> {
        self.heap.peek().map(|q| q.update.epoch)
    }

    /// Enqueues an update (any epoch; ordering happens on pop).
    pub fn push(&mut self, update: EpochUpdate) {
        let q = Queued {
            update,
            seq: self.seq,
        };
        self.seq += 1;
        self.heap.push(q);
    }

    /// Pops the earliest pending update.
    pub fn pop(&mut self) -> Option<EpochUpdate> {
        self.heap.pop().map(|q| q.update)
    }

    /// Pops the earliest pending update only if its epoch is at or before
    /// `now` — the polling pattern of a service loop driven by a clock.
    pub fn pop_ready(&mut self, now: f64) -> Option<EpochUpdate> {
        if self.next_epoch()? <= now {
            self.pop()
        } else {
            None
        }
    }
}

/// When to pay for freshness: the knobs of the maintenance tiers. A server
/// refuses, when it is built, a negative or non-finite `ridge` or
/// `deviation_threshold` and a NaN `refresh_row_fraction`.
#[derive(Debug, Clone, Copy)]
pub struct StalenessPolicy {
    /// A landmark (Gram row) counts as **hot** when the mean relative
    /// deviation of its measured row and column from the last-refresh
    /// baseline exceeds this. The refresh decision is per-row: the epoch
    /// refreshes only when more than [`refresh_row_fraction`] of the
    /// landmarks are hot — one badly drifted landmark is absorbed, never a
    /// whole-model barrier.
    ///
    /// [`refresh_row_fraction`]: StalenessPolicy::refresh_row_fraction
    pub deviation_threshold: f64,
    /// Refresh (warm partial refit) when the fraction of hot landmark
    /// rows exceeds this; at or below it, changed landmarks are absorbed
    /// (re-solved against the current model) and everything else is
    /// served cached. 0 refreshes
    /// on any hot row (closest to the PR-8 global gate); 1 never
    /// refreshes.
    pub refresh_row_fraction: f64,
    /// Full ALS sweeps per warm refresh (the paper's half-updates come in
    /// X-then-Y pairs; 1–3 sweeps recover most of the drift error).
    pub sweep_budget: usize,
    /// Ridge term baked into the cached join Grams (0 = plain normal
    /// equations).
    pub ridge: f64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy {
            deviation_threshold: 0.05,
            refresh_row_fraction: 0.25,
            sweep_budget: 2,
            ridge: 0.0,
        }
    }
}

/// What one [`StreamingServer::apply_epoch`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochOutcome {
    /// The epoch that was applied.
    pub epoch: f64,
    /// Number of measurement deltas written into the landmark matrix.
    pub applied: usize,
    /// Landmarks whose factor rows the absorb tier re-solved (0 on the
    /// refresh tier).
    pub absorbed: usize,
    /// Mean relative deviation from the last-refresh baseline, after
    /// applying the deltas.
    pub deviation: f64,
    /// Landmarks whose per-row deviation exceeded the threshold after
    /// applying the deltas (the per-row tier gate's input).
    pub hot_rows: usize,
    /// True when the staleness policy triggered a warm partial refit
    /// (more than `refresh_row_fraction` of the landmark rows were hot).
    pub refreshed: bool,
    /// Warm ALS sweeps spent by this call (0 on the absorb tier).
    pub sweeps: usize,
}

fn rank_deficient(_: ides_linalg::LinalgError) -> IdesError {
    IdesError::InvalidInput("landmark factors are rank-deficient".into())
}

/// The served landmark model: the landmark factors `X`, `Y` plus the
/// cached Gram factorizations every host join solves through (Eqs. 13–14).
/// It is what a host join needs and all it needs, so the server that
/// maintains it, the serving engine's shards and every published snapshot
/// share **one** instance by `Arc` (see the [module docs](self)). It is
/// immutable: a landmark step builds a new one.
#[derive(Debug)]
pub struct LandmarkModel {
    model: FactorModel,
    /// Cached factorization of `XᵀX + λI` — serves incoming-vector solves.
    gram_x: CachedGram,
    /// Cached factorization of `YᵀY + λI` — serves outgoing-vector solves.
    gram_y: CachedGram,
}

impl LandmarkModel {
    /// Factors the join Grams of a fitted model from scratch.
    fn factor(model: FactorModel, ridge: f64) -> Result<Self> {
        let gram_y = CachedGram::factor(model.y(), ridge).map_err(rank_deficient)?;
        let gram_x = CachedGram::factor(model.x(), ridge).map_err(rank_deficient)?;
        Ok(LandmarkModel {
            model,
            gram_x,
            gram_y,
        })
    }

    /// The landmark factors.
    pub(crate) fn factors(&self) -> &FactorModel {
        &self.model
    }
}

/// A long-running information server that ingests epoch-stamped
/// measurement deltas and maintains landmark coordinates incrementally.
/// See the [module docs](self) for the maintenance tiers.
#[derive(Debug, Clone)]
pub struct StreamingServer {
    /// Current measured landmark matrix (k x k).
    landmarks: Matrix,
    /// The landmark matrix as of the last refresh (staleness baseline).
    baseline: Matrix,
    /// The served model. Shared with whoever cloned the `Arc` (the serving
    /// engine's shards and snapshots); replaced whole by each landmark
    /// step.
    model: Arc<LandmarkModel>,
    policy: StalenessPolicy,
    /// The cold-fit ALS configuration (initial build, `full_refit`, and
    /// the warm counterpart the refresh tier budgets down).
    refit: AlsConfig,
    epoch: f64,
    refreshes: usize,
    absorbed_total: usize,
}

impl StreamingServer {
    /// Builds the server with a cold ALS fit of the landmark matrix at
    /// dimensionality `dim` (deterministic: `AlsConfig::new`'s fixed seed).
    pub fn new(landmarks: &DistanceMatrix, dim: usize, policy: StalenessPolicy) -> Result<Self> {
        StreamingServer::with_config(landmarks, AlsConfig::new(dim), policy)
    }

    /// Builds the server with an explicit cold-fit ALS configuration.
    pub fn with_config(
        landmarks: &DistanceMatrix,
        als: AlsConfig,
        policy: StalenessPolicy,
    ) -> Result<Self> {
        crate::system::validate_landmark_dims(landmarks.rows(), landmarks.cols(), als.dim)?;
        let fit = als::fit(landmarks, als)?;
        StreamingServer::from_fit(landmarks, fit.model, als, policy)
    }

    /// Shared constructor tail: check the policy and cache the join Grams
    /// of the fitted model.
    fn from_fit(
        landmarks: &DistanceMatrix,
        model: FactorModel,
        refit: AlsConfig,
        policy: StalenessPolicy,
    ) -> Result<Self> {
        for (field, value) in [
            ("ridge", policy.ridge),
            ("deviation_threshold", policy.deviation_threshold),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(IdesError::InvalidInput(format!(
                    "staleness policy: {field} must be finite and nonnegative, got {value}"
                )));
            }
        }
        if policy.refresh_row_fraction.is_nan() {
            return Err(IdesError::InvalidInput(
                "staleness policy: refresh_row_fraction is NaN".into(),
            ));
        }
        Ok(StreamingServer {
            landmarks: landmarks.values().clone(),
            baseline: landmarks.values().clone(),
            model: Arc::new(LandmarkModel::factor(model, policy.ridge)?),
            policy,
            refit,
            epoch: 0.0,
            refreshes: 0,
            absorbed_total: 0,
        })
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.rows()
    }

    /// Model dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.model().dim()
    }

    /// The current landmark factor model.
    pub fn model(&self) -> &FactorModel {
        self.model.factors()
    }

    /// The served model — factors plus cached join Grams — as the `Arc`
    /// the serving engine shares with its shards and snapshots.
    pub fn landmark_model(&self) -> &Arc<LandmarkModel> {
        &self.model
    }

    /// The current measured landmark matrix.
    pub fn landmark_matrix(&self) -> &Matrix {
        &self.landmarks
    }

    /// The epoch of the last applied update.
    pub fn epoch(&self) -> f64 {
        self.epoch
    }

    /// The staleness policy in force.
    pub fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    /// Warm refreshes performed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Landmarks re-solved by the absorb tier so far.
    pub fn absorbed(&self) -> usize {
        self.absorbed_total
    }

    /// The exact configuration [`StreamingServer::apply_epoch`]'s refresh
    /// tier hands to [`ides_mf::als::refine`] (sweep budget applied, early
    /// stopping disabled) — exposed so callers (and the bit-identity
    /// tests) can reproduce a refresh externally.
    pub fn refresh_config(&self) -> AlsConfig {
        AlsConfig {
            sweeps: self.policy.sweep_budget,
            tolerance: 0.0,
            ..self.refit
        }
    }

    /// The tier gate's two drift signals from one pass over the landmark
    /// matrix against its last-refresh baseline:
    ///
    /// * the **mean relative deviation** `|D − B| / B` over every entry
    ///   with a positive baseline (reported as
    ///   [`EpochOutcome::deviation`]);
    /// * the number of **hot** landmarks: those whose row **and** column
    ///   (both directions, because an absorb re-solves both of a
    ///   landmark's factor rows) deviate on average by more than the
    ///   policy's `deviation_threshold`. The epoch refreshes only when
    ///   `hot / k` exceeds `refresh_row_fraction` (reported as
    ///   [`EpochOutcome::hot_rows`]).
    ///
    /// Each entry's deviation is computed once; both means add their
    /// terms in a fixed order (row-major for the global one; `(l, j)`,
    /// `(j, l)` for ascending `j ≠ l` per landmark).
    fn drift(&self) -> (f64, usize) {
        let k = self.landmarks.rows();
        let (now, base) = (self.landmarks.as_slice(), self.baseline.as_slice());
        // An entry without a positive baseline does not count; its term is
        // 0, which leaves the bits of any sum of nonnegative terms as they
        // were.
        let rel: Vec<f64> = base
            .iter()
            .zip(now)
            .map(|(&b, &v)| if b > 0.0 { (v - b).abs() / b } else { 0.0 })
            .collect();
        let mean = |total: f64, count: usize| {
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        let counted = base.iter().filter(|&&b| b > 0.0).count();
        let deviation = mean(rel.iter().fold(0.0, |total, t| total + t), counted);
        // Landmark `l` adds its terms in ascending `j`; running every
        // landmark's sum side by side keeps that order.
        let (mut totals, mut counts) = (vec![0.0; k], vec![0usize; k]);
        for j in 0..k {
            for l in (0..k).filter(|&l| l != j) {
                for at in [l * k + j, j * k + l] {
                    totals[l] += rel[at];
                    counts[l] += usize::from(base[at] > 0.0);
                }
            }
        }
        let hot = (0..k).filter(|&l| mean(totals[l], counts[l]) > self.policy.deviation_threshold);
        (deviation, hot.count())
    }

    /// Refits the current landmark matrix by ALS and factors the result
    /// into a new model: `warm` is the refresh tier's bounded sweeps from
    /// the current factors ([`StreamingServer::refresh_config`]),
    /// otherwise a cold fit. Reads `&self` only.
    fn refit_model(&self, warm: bool) -> Result<LandmarkModel> {
        let data = DistanceMatrix::full("streaming", self.landmarks.clone())
            .map_err(|e| IdesError::InvalidInput(e.to_string()))?;
        let fitted = if warm {
            als::refine(&data, self.model(), self.refresh_config())?.model
        } else {
            als::fit(&data, self.refit)?.model
        };
        LandmarkModel::factor(fitted, self.policy.ridge)
    }

    /// Cold full refit from the current landmark matrix — the expensive
    /// control the `streaming_update` bench compares the incremental tiers
    /// against (and the recovery path if the model ever degenerates).
    /// On an error the server is unchanged.
    pub fn full_refit(&mut self) -> Result<()> {
        self.model = Arc::new(self.refit_model(false)?);
        self.baseline = self.landmarks.clone();
        self.refreshes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::{BatchHostVectors, JoinOptions, JoinSolver};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn update_queue_orders_by_epoch_then_insertion() {
        // Engine contract.
        let mut q = UpdateQueue::new();
        assert!(q.is_empty());
        let u = |epoch: f64| EpochUpdate {
            epoch,
            deltas: Vec::new(),
        };
        q.push(u(5.0));
        q.push(u(1.0));
        q.push(u(1.0));
        q.push(u(3.0));
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_epoch(), Some(1.0));
        assert_eq!(q.pop().unwrap().epoch, 1.0);
        assert_eq!(q.pop().unwrap().epoch, 1.0);
        assert!(q.pop_ready(2.0).is_none()); // next is 3.0 > 2.0
        assert_eq!(q.pop_ready(3.0).unwrap().epoch, 3.0);
        assert_eq!(q.pop().unwrap().epoch, 5.0);
        assert!(q.pop().is_none());
        // A NaN stamp sorts after every number instead of breaking the order.
        for epoch in [3.0, f64::NAN, 1.0, 2.0, f64::NAN, 0.5] {
            q.push(u(epoch));
        }
        let popped: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|u| u.epoch).collect();
        assert_eq!(popped[..4], [0.5, 1.0, 2.0, 3.0]);
        assert!(popped[4..].iter().all(|e| e.is_nan()), "{popped:?}");
    }

    /// An update of `(from, to, rtt)` deltas.
    fn epoch_update(
        epoch: f64,
        deltas: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> EpochUpdate {
        let deltas = deltas.into_iter();
        let deltas = deltas
            .map(|(from, to, rtt)| MeasurementDelta { from, to, rtt })
            .collect();
        EpochUpdate { epoch, deltas }
    }

    #[test]
    fn a_bad_staleness_policy_is_rejected_when_the_server_is_built() {
        // Engine contract.
        let ds = ides_datasets::generators::gnp_like(10, 3).unwrap();
        let spoiled = |spoil: fn(&mut StalenessPolicy)| {
            let mut policy = StalenessPolicy::default();
            spoil(&mut policy);
            policy
        };
        for (field, policy) in [
            ("ridge", spoiled(|p| p.ridge = f64::NAN)),
            ("ridge", spoiled(|p| p.ridge = f64::INFINITY)),
            ("ridge", spoiled(|p| p.ridge = -0.1)),
            (
                "deviation_threshold",
                spoiled(|p| p.deviation_threshold = f64::NAN),
            ),
            (
                "deviation_threshold",
                spoiled(|p| p.deviation_threshold = -1.0),
            ),
            (
                "refresh_row_fraction",
                spoiled(|p| p.refresh_row_fraction = f64::NAN),
            ),
        ] {
            let r = StreamingServer::new(&ds.matrix, 4, policy);
            assert!(
                matches!(&r, Err(IdesError::InvalidInput(m)) if m.contains(field)),
                "{r:?}"
            );
        }
    }

    /// The tier gate as the three walks [`StreamingServer::drift`]
    /// replaced: the global mean, then each landmark's row-and-column mean
    /// (the hot count is the means above the threshold).
    fn three_walk_gate(server: &StreamingServer) -> (f64, Vec<f64>) {
        let (now, base, k) = (&server.landmarks, &server.baseline, server.landmark_count());
        let mean = |cells: &mut dyn Iterator<Item = (usize, usize)>| {
            let (mut total, mut count) = (0.0, 0usize);
            for (r, c) in cells.filter(|&(r, c)| base[(r, c)] > 0.0) {
                total += (now[(r, c)] - base[(r, c)]).abs() / base[(r, c)];
                count += 1;
            }
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        let deviation = mean(&mut (0..k).flat_map(|i| (0..k).map(move |j| (i, j))));
        let rows =
            (0..k).map(|l| mean(&mut (0..k).filter(|&j| j != l).flat_map(|j| [(l, j), (j, l)])));
        (deviation, rows.collect())
    }

    #[test]
    fn one_pass_tier_gate_matches_the_three_walks_bitwise() {
        // History oracle.
        // Drift accumulating over 12 epochs (never refreshing), with three
        // co-located pairs at 0 ms (no positive baseline: they count
        // nowhere). The one pass must report the three walks' deviation
        // bits and hot count after every epoch, at thresholds that put the
        // hot count anywhere from 0 to k, and at every landmark's exact
        // final mean and one ulp below it, where a per-landmark sum one
        // ulp off flips that landmark's verdict.
        let ds = ides_datasets::generators::p2psim_like(30, 13).unwrap();
        let sub: Vec<usize> = (0..24).collect();
        let mut values = ds.matrix.submatrix(&sub, &sub).values().clone();
        for (a, b) in [(3, 7), (7, 3), (10, 2)] {
            values[(a, b)] = 0.0;
        }
        let lm = DistanceMatrix::full("lm", values).unwrap();
        let mut hot_counts = Vec::new();
        let mut replay = |deviation_threshold: f64| {
            let policy = StalenessPolicy {
                deviation_threshold,
                refresh_row_fraction: 1.0,
                ..StalenessPolicy::default()
            };
            let mut server = StreamingServer::new(&lm, 5, policy).unwrap();
            let mut means = Vec::new();
            for epoch in 1..=12usize {
                let drift = |n: usize| 1.0 + 0.01 * ((epoch * 13 + n) as f64).sin();
                let cells = (0..5 * epoch).map(|n| ((7 * n + epoch) % 24, (11 * n + 3) % 24));
                let deltas = cells.map(|(i, j)| (i, j, server.landmarks[(i, j)] * drift(i)));
                let update = epoch_update(epoch as f64, deltas.collect::<Vec<_>>());
                let outcome = server.apply_epoch(&update).unwrap();
                let deviation;
                (deviation, means) = three_walk_gate(&server);
                let hot = means.iter().filter(|&&m| m > deviation_threshold).count();
                assert_eq!(
                    outcome.deviation.to_bits(),
                    deviation.to_bits(),
                    "epoch {epoch}"
                );
                assert_eq!(
                    outcome.hot_rows, hot,
                    "threshold {deviation_threshold}, epoch {epoch}"
                );
                hot_counts.push(hot);
            }
            means
        };
        let last = replay(0.0);
        for threshold in [0.0002, 0.0005, 0.001, 0.003] {
            replay(threshold);
        }
        for mean in last {
            replay(mean);
            replay(mean.next_down());
        }
        let partial = hot_counts.iter().filter(|&&h| h > 0 && h < 24).count();
        assert!(partial >= 10, "hot counts {hot_counts:?}");
    }

    #[test]
    fn an_als_absorb_is_a_join_on_the_epoch_start_model() {
        // Engine contract.
        // At the served shape (k = 64, d = 16), moving every landmark and
        // moving three: the absorbed factor rows are bit-equal to
        // `join_batch(D, Dᵀ)` on the model the epoch started from, and the
        // landmarks that did not move keep their rows.
        let ds = ides_datasets::generators::p2psim_like(72, 7).unwrap();
        let sub: Vec<usize> = (0..64).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        for ridge in [0.0, 0.1] {
            let policy = StalenessPolicy {
                refresh_row_fraction: 1.0,
                ridge,
                ..StalenessPolicy::default()
            };
            for pairs in [
                (0..32).map(|i| (2 * i, 2 * i + 1)).collect(),
                vec![(5, 9), (9, 40)],
            ] {
                let mut server = StreamingServer::new(&lm, 16, policy).unwrap();
                let start = Arc::clone(server.landmark_model());
                let deltas = pairs
                    .iter()
                    .map(|&(i, j)| (i, j, lm.values()[(i, j)] * 1.01 + 0.01));
                let outcome = server
                    .apply_epoch(&epoch_update(1.0, deltas.collect::<Vec<_>>()))
                    .unwrap();
                let d = server.landmark_matrix();
                let mut joined = BatchHostVectors::new();
                start.join_batch(d, &d.transpose(), &mut joined).unwrap();
                let moved = |l: usize| pairs.iter().any(|&(i, j)| l == i || l == j);
                assert_eq!(outcome.absorbed, (0..64).filter(|&l| moved(l)).count());
                let (now, then) = (server.model(), start.factors());
                for l in 0..64 {
                    let (x, y) = match moved(l) {
                        true => (joined.outgoing(l), joined.incoming(l)),
                        false => (then.x().row(l), then.y().row(l)),
                    };
                    assert_eq!(bits(now.x().row(l)), bits(x), "ridge {ridge}, landmark {l}");
                    assert_eq!(bits(now.y().row(l)), bits(y), "ridge {ridge}, landmark {l}");
                }
            }
        }
    }

    #[test]
    fn apply_epoch_validates_deltas() {
        // Engine contract.
        let ds = ides_datasets::generators::gnp_like(10, 3).unwrap();
        let mut server = StreamingServer::new(&ds.matrix, 4, StalenessPolicy::default()).unwrap();
        let bad_idx = EpochUpdate {
            epoch: 1.0,
            deltas: vec![MeasurementDelta {
                from: 99,
                to: 0,
                rtt: 1.0,
            }],
        };
        assert!(server.apply_epoch(&bad_idx).is_err());
        let bad_rtt = EpochUpdate {
            epoch: 1.0,
            deltas: vec![MeasurementDelta {
                from: 0,
                to: 1,
                rtt: -3.0,
            }],
        };
        assert!(server.apply_epoch(&bad_rtt).is_err());
        // A non-finite stamp is refused before anything is written.
        let before = bits(server.landmarks.as_slice());
        for epoch in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = server.apply_epoch(&epoch_update(epoch, [(0, 1, 7.0)]));
            assert!(matches!(r, Err(IdesError::InvalidInput(_))), "{r:?}");
            assert_eq!(server.epoch(), 0.0);
            assert_eq!(bits(server.landmarks.as_slice()), before);
        }
    }

    #[test]
    fn a_rejected_landmark_step_changes_nothing() {
        // Engine contract.
        // Every landmark RTT set to 0: validation accepts the deltas, but
        // the factors they lead to are rank-deficient. On the refresh tier
        // (default policy: every row is hot) and on the absorb tier alike,
        // the step must be refused with the server bit-unchanged, and the
        // next valid step must go through.
        let ds = ides_datasets::generators::p2psim_like(20, 5).unwrap();
        let absorb_only = StalenessPolicy {
            refresh_row_fraction: 1.0,
            ..StalenessPolicy::default()
        };
        let state = |s: &StreamingServer| {
            let (lm, counters) = (&s.model, [s.refreshes, s.absorbed_total]);
            let mats = [&s.landmarks, &s.baseline, lm.model.x(), lm.model.y()];
            let grams = [lm.gram_x.l(), lm.gram_y.l()];
            let all = mats.into_iter().chain(grams).map(|m| bits(m.as_slice()));
            (all.collect::<Vec<_>>(), s.epoch.to_bits(), counters)
        };
        let update = |epoch: f64, deltas: Vec<(usize, usize, f64)>| EpochUpdate {
            epoch,
            deltas: deltas
                .into_iter()
                .map(|(from, to, rtt)| MeasurementDelta { from, to, rtt })
                .collect(),
        };
        for policy in [StalenessPolicy::default(), absorb_only] {
            let mut server = StreamingServer::new(&ds.matrix, 4, policy).unwrap();
            let rtt = server.landmarks[(1, 2)];
            let nudge = |epoch: f64| update(epoch, vec![(1, 2, rtt * (1.0 + 0.01 * epoch))]);
            assert_eq!(server.apply_epoch(&nudge(1.0)).unwrap().absorbed, 2);
            let before = state(&server);
            let zeros = update(2.0, (0..400).map(|i| (i / 20, i % 20, 0.0)).collect());
            assert!(server.apply_epoch(&zeros).is_err(), "{policy:?}");
            let after = state(&server);
            assert!(
                after == before,
                "{policy:?}: a rejected step changed the server"
            );
            server.apply_epoch(&nudge(3.0)).unwrap();
            assert_eq!(server.epoch(), 3.0);
        }
    }

    #[test]
    fn small_drift_absorbs_large_drift_refreshes() {
        // Engine contract.
        let ds = ides_datasets::generators::gnp_like(15, 7).unwrap();
        let policy = StalenessPolicy {
            deviation_threshold: 0.05,
            refresh_row_fraction: 0.25,
            sweep_budget: 2,
            ridge: 0.0,
        };
        let mut server = StreamingServer::new(&ds.matrix, 5, policy).unwrap();
        // Tiny drift on one pair: absorb tier.
        let base = server.landmark_matrix()[(2, 5)];
        let small = EpochUpdate {
            epoch: 1.0,
            deltas: vec![
                MeasurementDelta {
                    from: 2,
                    to: 5,
                    rtt: base * 1.01,
                },
                MeasurementDelta {
                    from: 5,
                    to: 2,
                    rtt: base * 1.01,
                },
            ],
        };
        let outcome = server.apply_epoch(&small).unwrap();
        assert!(!outcome.refreshed);
        assert_eq!(outcome.absorbed, 2);
        assert_eq!(outcome.applied, 2);
        assert_eq!(server.refreshes(), 0);
        // Blow every entry up 30 %: refresh tier.
        let k = server.landmark_count();
        let mut deltas = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    deltas.push(MeasurementDelta {
                        from: i,
                        to: j,
                        rtt: server.landmark_matrix()[(i, j)] * 1.3,
                    });
                }
            }
        }
        let outcome = server
            .apply_epoch(&EpochUpdate { epoch: 2.0, deltas })
            .unwrap();
        assert!(outcome.refreshed);
        assert!(outcome.deviation > 0.05, "deviation {}", outcome.deviation);
        assert_eq!(outcome.sweeps, 2);
        assert_eq!(server.refreshes(), 1);
        assert_eq!(server.epoch(), 2.0);
        // After a refresh the baseline resets, so deviation reads 0.
        assert_eq!(server.drift(), (0.0, 0));
    }

    #[test]
    fn absorb_tracks_refactored_grams() {
        // Engine contract.
        // After several absorb epochs, the served Grams must be bit-equal
        // to a from-scratch factorization of the current factors.
        let ds = ides_datasets::generators::p2psim_like(20, 11).unwrap();
        let policy = StalenessPolicy {
            deviation_threshold: 0.5, // never refresh in this test
            ..StalenessPolicy::default()
        };
        let mut server = StreamingServer::new(&ds.matrix, 6, policy).unwrap();
        for step in 0..5 {
            let i = (step * 3) % 20;
            let j = (step * 7 + 1) % 20;
            if i == j {
                continue;
            }
            let rtt = server.landmark_matrix()[(i, j)] * (1.0 + 0.02 * (step as f64 + 1.0));
            server
                .apply_epoch(&EpochUpdate {
                    epoch: step as f64,
                    deltas: vec![MeasurementDelta {
                        from: i,
                        to: j,
                        rtt,
                    }],
                })
                .unwrap();
        }
        assert!(server.absorbed() > 0);
        let fresh_y = CachedGram::factor(server.model().y(), policy.ridge).unwrap();
        let fresh_x = CachedGram::factor(server.model().x(), policy.ridge).unwrap();
        assert_eq!(
            bits(server.model.gram_y.l().as_slice()),
            bits(fresh_y.l().as_slice())
        );
        assert_eq!(
            bits(server.model.gram_x.l().as_slice()),
            bits(fresh_x.l().as_slice())
        );
    }

    #[test]
    fn cached_join_matches_batched_normal_equations_bitwise() {
        // Engine contract.
        // On the built model and after each of three absorb epochs (ALS
        // family, with a ridge), a cached join is bit-identical to the
        // one-shot batched normal-equation join against the current factors.
        let ds = ides_datasets::generators::p2psim_like(30, 4).unwrap();
        let sub: Vec<usize> = (0..12).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        let policy = StalenessPolicy {
            refresh_row_fraction: 1.0,
            ridge: 0.1,
            ..StalenessPolicy::default()
        };
        let mut server = StreamingServer::new(&lm, 5, policy).unwrap();
        let hosts = 7;
        let d_out = Matrix::from_fn(hosts, 12, |h, l| {
            ds.matrix.get(13 + h, sub[l]).unwrap_or(1.0)
        });
        let d_in = Matrix::from_fn(hosts, 12, |h, l| {
            ds.matrix.get(sub[l], 13 + h).unwrap_or(1.0)
        });
        for epoch in 0..4 {
            if epoch > 0 {
                let deltas = (0..3 * epoch)
                    .map(|n| (n % 12, (5 * n + 1) % 12))
                    .map(|(from, to)| MeasurementDelta {
                        from,
                        to,
                        rtt: server.landmarks[(from, to)] * 1.03,
                    })
                    .collect();
                let outcome = server.apply_epoch(&EpochUpdate {
                    epoch: epoch as f64,
                    deltas,
                });
                assert!(!outcome.unwrap().refreshed);
            }
            let mut cached = BatchHostVectors::new();
            server.model.join_batch(&d_out, &d_in, &mut cached).unwrap();
            // One-shot batched join with the same solver arithmetic.
            let mut oneshot = BatchHostVectors::new();
            crate::projection::join_hosts_into(
                &mut crate::projection::JoinWorkspace::new(),
                server.model().x(),
                server.model().y(),
                &d_out,
                &d_in,
                JoinOptions {
                    solver: JoinSolver::NormalEquations,
                    ridge: policy.ridge,
                },
                &mut oneshot,
            )
            .unwrap();
            for h in 0..hosts {
                assert_eq!(bits(cached.outgoing(h)), bits(oneshot.outgoing(h)));
                assert_eq!(bits(cached.incoming(h)), bits(oneshot.incoming(h)));
            }
        }
        assert!(server.absorbed() > 12);
    }

    #[test]
    fn rejoin_affected_scatters_and_preserves() {
        // Engine contract.
        let ds = ides_datasets::generators::p2psim_like(40, 9).unwrap();
        let sub: Vec<usize> = (0..15).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        let mut server = StreamingServer::new(&lm, 6, StalenessPolicy::default()).unwrap();
        let hosts = 10;
        let d_out = Matrix::from_fn(hosts, 15, |h, l| {
            ds.matrix.get(20 + h, sub[l]).unwrap_or(1.0)
        });
        let d_in = Matrix::from_fn(hosts, 15, |h, l| {
            ds.matrix.get(sub[l], 20 + h).unwrap_or(1.0)
        });
        let mut coords = BatchHostVectors::new();
        server.model.join_batch(&d_out, &d_in, &mut coords).unwrap();
        let stale = coords.clone();
        // Drift one landmark pair (absorb) and re-join hosts 2, 5, 9 only.
        let rtt = server.landmark_matrix()[(1, 4)] * 1.02;
        server
            .apply_epoch(&EpochUpdate {
                epoch: 1.0,
                deltas: vec![MeasurementDelta {
                    from: 1,
                    to: 4,
                    rtt,
                }],
            })
            .unwrap();
        let affected = [2usize, 5, 9];
        server
            .rejoin_affected(&affected, &d_out, &d_in, &mut coords)
            .unwrap();
        // Affected rows match a full cached join on the new model...
        let mut full = BatchHostVectors::new();
        server.model.join_batch(&d_out, &d_in, &mut full).unwrap();
        for &h in &affected {
            assert_eq!(coords.host(h), full.host(h), "host {h}");
        }
        // ...and every other row kept its cached (stale) coordinates.
        for h in (0..hosts).filter(|h| !affected.contains(h)) {
            assert_eq!(coords.host(h), stale.host(h), "host {h}");
        }
        // Out-of-range host rejected; shape mismatch rejected.
        assert!(server
            .rejoin_affected(&[99], &d_out, &d_in, &mut coords)
            .is_err());
        let mut tiny = BatchHostVectors::new();
        assert!(server
            .rejoin_affected(&[0], &d_out, &d_in, &mut tiny)
            .is_err());
    }

    #[test]
    fn mismatched_measurement_tables_are_rejected_before_anything_changes() {
        // Engine contract.
        // `d_in` one row short of `d_out`, or one column narrow: the
        // rejoin must refuse the tables before the first coordinate write.
        let ds = ides_datasets::generators::p2psim_like(30, 9).unwrap();
        let sub: Vec<usize> = (0..12).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        let server = StreamingServer::new(&lm, 4, StalenessPolicy::default()).unwrap();
        let d_out = Matrix::from_fn(3, 12, |h, l| 10.0 + (h * 12 + l) as f64);
        let mut coords = BatchHostVectors::new();
        coords.reset_shape(3, 4);
        let hosts = [0usize, 1, 2];
        for d_in in [
            Matrix::from_fn(2, 12, |h, l| 11.0 + (h * 12 + l) as f64),
            Matrix::from_fn(3, 11, |h, l| (h + l) as f64),
        ] {
            for observed in [None, Some(vec![vec![0usize, 1, 2, 3, 4]; 3])] {
                let tables = RejoinTables {
                    observed: observed.as_deref(),
                    ..RejoinTables::full(&hosts, &d_out, &d_in, &mut coords)
                };
                let r = server.rejoin(tables);
                assert!(matches!(r, Err(IdesError::InvalidInput(_))), "{r:?}");
                assert!(coords
                    .outgoing_matrix()
                    .as_slice()
                    .iter()
                    .chain(coords.incoming_matrix().as_slice())
                    .all(|&v| v == 0.0));
            }
        }
        // A coordinate table of the wrong shape is refused too...
        let d_in = Matrix::from_fn(3, 12, |h, l| 11.0 + (h * 12 + l) as f64);
        let mut tiny = BatchHostVectors::new();
        tiny.reset_shape(2, 4);
        assert!(server
            .rejoin_affected(&hosts, &d_out, &d_in, &mut tiny)
            .is_err());
        // ... and the same call with matching tables goes through.
        server
            .rejoin_affected(&hosts, &d_out, &d_in, &mut coords)
            .unwrap();
        assert!(coords.outgoing(2).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn a_bad_observed_set_is_rejected_before_anything_changes() {
        // Engine contract.
        // One host's subset is out of range, empty, or missing: the rejoin
        // must be refused with the coordinate table bit-unchanged — also
        // the rows of the hosts listed before the bad one.
        let ds = ides_datasets::generators::p2psim_like(30, 9).unwrap();
        let sub: Vec<usize> = (0..12).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        let server = StreamingServer::new(&lm, 4, StalenessPolicy::default()).unwrap();
        let d_out = Matrix::from_fn(3, 12, |h, l| 10.0 + (h * 12 + l) as f64);
        let d_in = Matrix::from_fn(3, 12, |h, l| 11.0 + (h * 12 + l) as f64);
        let mut coords = BatchHostVectors::new();
        coords.reset_shape(3, 4);
        let hosts = [0usize, 1, 2];
        let good: Vec<usize> = (0..6).collect();
        let full: Vec<usize> = (0..12).collect();
        for bad in [
            vec![full.clone(), vec![3, 12, 5, 6, 7], good.clone()],
            vec![good.clone(), full.clone(), Vec::new()],
            vec![good.clone(), full.clone()],
        ] {
            let tables = RejoinTables {
                observed: Some(&bad),
                ..RejoinTables::full(&hosts, &d_out, &d_in, &mut coords)
            };
            let r = server.rejoin(tables);
            assert!(matches!(r, Err(IdesError::InvalidInput(_))), "{r:?}");
            assert!(coords
                .outgoing_matrix()
                .as_slice()
                .iter()
                .chain(coords.incoming_matrix().as_slice())
                .all(|&v| v == 0.0));
        }
    }
}
