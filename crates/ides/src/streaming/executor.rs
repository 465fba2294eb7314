//! The epoch executor: absorb, then rejoin.
//!
//! [`StreamingServer::apply_epoch_with`] is the one way an epoch is
//! applied (§5.1 of the paper: the information server updates the
//! landmark factors, then every ordinary host is re-solved against them):
//!
//! 1. **Validate** the deltas and, when given, the rejoin tables and
//!    observed sets — everything that can be rejected is rejected here,
//!    before the first write.
//! 2. **Apply the deltas** to the measured landmark matrix and pick the
//!    maintenance tier per Gram row (the staleness policy's row gate).
//! 3. **Refresh** (warm partial refit) or **absorb** the changed
//!    landmarks: every landmark's new factor rows are solved in parallel
//!    against the epoch-start model and Grams — pure `&self` reads into a
//!    detached scratch pool — then committed serially in ascending
//!    landmark order (row swap + rank-1 Gram surgery).
//! 4. **Rejoin** the hosts. Full-measurement hosts go through the tiled
//!    cached join ([`super::tile`]): fixed 256-host tiles, each read out
//!    of the measurement tables in place, solved in cache-resident
//!    scratch and handed to the caller's tile sink, with the thread
//!    fan-out splitting on tile boundaries; hosts with **partial observed
//!    sets** (§6.2) are grouped by identical subset and solved through
//!    [`crate::projection::join_hosts_subset_into`] — one gathered
//!    factorization per distinct subset, executed serially so the
//!    arithmetic never depends on the thread count.
//!
//! Because solves read frozen epoch-start state and commits land in a
//! fixed order, the result is **bit-identical at any thread count** —
//! parallelism changes *when* a solve runs, never *what* it reads or the
//! order its result is merged. Rejoins only read the model and only write
//! coordinates; absorbs never read coordinates.

use std::collections::BTreeMap;

use ides_linalg::Matrix;

use super::tile::{cached_join_into, check_rows, scatter_tile, HostRows, TileSink};
use super::{
    AbsorbSolution, EpochOutcome, EpochUpdate, RefreshStrategy, RejoinCtx, StreamingServer,
};
use crate::error::{IdesError, Result};
use crate::eval::{eval_threads, shard_ranges};
use crate::projection::{
    join_hosts_subset_into, BatchHostVectors, JoinOptions, JoinSolver, JoinWorkspace,
};
use crate::telemetry as tm;

/// Minimum absorbs per spawned thread before the solve phase fans out
/// under the automatic (`threads = None`) policy. One absorb solve is a
/// couple of `O(d²)` back-substitutions — a few microseconds — while a
/// scoped-thread spawn costs tens; below this grain parallelism is a pure
/// loss and the solves run serial (bit-identical either way).
const MIN_ABSORBS_PER_THREAD: usize = 32;

/// Effective thread count for `n` absorbs: the ambient cap, clamped so
/// each thread gets at least `min_per_thread` of them.
fn auto_fanout(n: usize, cap: usize, min_per_thread: usize) -> usize {
    cap.min(n / min_per_thread).max(1)
}

/// The ordinary-host side of an epoch: the full measurement tables and
/// the coordinate cache whose affected rows the rejoin refreshes in place.
#[derive(Debug)]
pub struct RejoinTables<'a> {
    /// Hosts whose own measurements drifted this epoch (rows of the
    /// measurement matrices).
    pub hosts: &'a [usize],
    /// Full `hosts x k` outgoing measurement matrix.
    pub d_out: &'a Matrix,
    /// Full `hosts x k` incoming measurement matrix.
    pub d_in: &'a Matrix,
    /// Cached coordinate table; only rows in `hosts` are rewritten.
    pub coords: &'a mut BatchHostVectors,
    /// Per-host observed-landmark subsets, parallel to `hosts`: the §6.2
    /// partial-measurement metadata. `None` means every host measured
    /// every landmark. A host whose deduped subset covers all `k`
    /// landmarks routes through the cached full join, bitwise identical
    /// to the `None` case.
    pub observed: Option<&'a [Vec<usize>]>,
}

impl<'a> RejoinTables<'a> {
    /// Tables for hosts that measured every landmark: no observed-set
    /// metadata.
    pub fn full(
        hosts: &'a [usize],
        d_out: &'a Matrix,
        d_in: &'a Matrix,
        coords: &'a mut BatchHostVectors,
    ) -> Self {
        RejoinTables {
            hosts,
            d_out,
            d_in,
            coords,
            observed: None,
        }
    }

    /// Checks the tables against the server's shape (`k` landmarks, `dim`
    /// coordinates per direction) — both measurement tables `hosts × k`,
    /// the coordinate table `hosts × dim` — and splits them into the
    /// rejoin's inputs and the coordinate table the tiles land in.
    pub(crate) fn split(
        self,
        k: usize,
        dim: usize,
    ) -> Result<(RejoinInputs<'a>, &'a mut BatchHostVectors)> {
        if self.d_out.cols() != k || self.d_in.shape() != self.d_out.shape() {
            return Err(IdesError::InvalidInput(format!(
                "measurement tables must both be hosts x {k}: out {:?}, in {:?}",
                self.d_out.shape(),
                self.d_in.shape()
            )));
        }
        if self.coords.len() != self.d_out.rows() || self.coords.dim() != dim {
            return Err(IdesError::InvalidInput(format!(
                "coordinate table is {}x{}, expected {}x{dim}",
                self.coords.len(),
                self.coords.dim(),
                self.d_out.rows(),
            )));
        }
        let inputs = RejoinInputs {
            hosts: HostRows::ids(self.hosts),
            d_out: self.d_out.as_slice(),
            d_in: self.d_in.as_slice(),
            observed: self.observed,
        };
        Ok((inputs, self.coords))
    }
}

/// Everything a rejoin reads: the hosts (rows of the measurement tables),
/// the two flattened `hosts × k` tables and the observed-set metadata (see
/// [`RejoinTables`], whose crate-internal form this is).
#[derive(Debug)]
pub(crate) struct RejoinInputs<'a> {
    pub hosts: HostRows<'a>,
    pub d_out: &'a [f64],
    pub d_in: &'a [f64],
    pub observed: Option<&'a [Vec<usize>]>,
}

impl<'a> RejoinInputs<'a> {
    /// Validates the inputs — both tables `hosts × k`, every host a row of
    /// them, one non-empty in-range observed set per host — and decides
    /// how the rejoin reaches each host. Reads only; an `Err` here means
    /// nothing was written anywhere.
    fn route(&self, k: usize) -> Result<RejoinRoute<'a>> {
        check_rows(self.d_out, self.d_in, k, &self.hosts)?;
        let Some(subsets) = self.observed else {
            return Ok(RejoinRoute {
                full: self.hosts.clone(),
                groups: Vec::new(),
            });
        };
        if subsets.len() != self.hosts.len() {
            return Err(IdesError::InvalidInput(format!(
                "{} observed sets for {} rejoin hosts",
                subsets.len(),
                self.hosts.len()
            )));
        }
        let mut full = Vec::new();
        let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
        for (h, raw) in self.hosts.iter().zip(subsets) {
            let mut s = raw.clone();
            s.sort_unstable();
            s.dedup();
            if let Some(&bad) = s.last().filter(|&&l| l >= k) {
                return Err(IdesError::InvalidInput(format!(
                    "host {h} observes landmark {bad}, out of range for {k}"
                )));
            }
            if s.is_empty() {
                return Err(IdesError::InvalidInput(format!(
                    "host {h} has an empty observed set"
                )));
            }
            if s.len() == k {
                // Full coverage: the cached full join, bitwise identical
                // to the `observed: None` case.
                full.push(h);
            } else {
                groups.entry(s).or_default().push(h);
            }
        }
        Ok(RejoinRoute {
            full: HostRows::Ids(full.into()),
            groups: groups.into_iter().collect(),
        })
    }
}

/// A rejoin as the executor runs it: the inputs plus the sink the finished
/// tiles are handed to — a scatter into the caller's coordinate table for
/// [`RejoinTables`], fresh chunk-tree chunks for the serving engine.
pub(crate) struct RejoinJob<'a, 's> {
    pub inputs: RejoinInputs<'a>,
    pub sink: &'s mut TileSink<'s>,
}

/// How the rejoin reaches each host: full-measurement hosts take the tiled
/// cached join, partial-subset hosts are grouped by identical (deduped,
/// sorted) subset for one gathered factorization per group.
#[derive(Debug)]
struct RejoinRoute<'a> {
    /// Hosts joining through every landmark (cached full join), in input
    /// order: the caller's own host list when no observed sets are given,
    /// an owned sub-list otherwise.
    full: HostRows<'a>,
    /// `(subset, member hosts)` per distinct partial subset, in subset
    /// order (deterministic `BTreeMap` grouping); members in input order.
    groups: Vec<(Vec<usize>, Vec<usize>)>,
}

impl StreamingServer {
    /// Ingests one epoch of measurement deltas: applies them, absorbs the
    /// changed landmarks or refreshes the model per the staleness policy,
    /// then re-joins every host in `rejoin` (when given) against the
    /// updated model.
    ///
    /// `threads = None` is the production policy: the ambient
    /// `IDES_LINALG_THREADS`-resolved cap, with the absorb solves' fan-out
    /// clamped by work size (`MIN_ABSORBS_PER_THREAD`) so epochs too small
    /// to amortize a thread spawn run serial. `Some(t)` executes with
    /// exactly `t` threads, no heuristic — the determinism suites use it
    /// to force real fan-out at small scale. The rejoin fans out on tile
    /// boundaries under either policy (never more threads than 256-host
    /// tiles). Either way the committed state is **bit-identical to
    /// `threads = Some(1)`** — see the [`streaming`](super) module docs
    /// for the phase structure that guarantees it.
    ///
    /// The deltas, both measurement tables, the coordinate table and the
    /// observed sets are validated before anything is applied: a rejected
    /// call leaves the server and the coordinates exactly as they were.
    pub fn apply_epoch_with(
        &mut self,
        update: &EpochUpdate,
        rejoin: Option<RejoinTables<'_>>,
        threads: Option<usize>,
    ) -> Result<EpochOutcome> {
        let Some(tables) = rejoin else {
            return self.apply_epoch_job(update, None, threads);
        };
        let (inputs, coords) = tables.split(self.landmark_count(), self.dim())?;
        let mut sink =
            |rows: &HostRows<'_>, tile: &BatchHostVectors| scatter_tile(coords, rows, tile);
        self.apply_epoch_job(
            update,
            Some(RejoinJob {
                inputs,
                sink: &mut sink,
            }),
            threads,
        )
    }

    /// [`StreamingServer::apply_epoch_with`] over a [`RejoinJob`]: the
    /// same epoch, with the rejoined tiles handed to the job's sink.
    pub(crate) fn apply_epoch_job(
        &mut self,
        update: &EpochUpdate,
        rejoin: Option<RejoinJob<'_, '_>>,
        threads: Option<usize>,
    ) -> Result<EpochOutcome> {
        let auto = threads.is_none();
        let threads = threads.unwrap_or_else(eval_threads).max(1);
        let k = self.landmark_count();

        let plan_span = tm::span(tm::Stage::Plan);
        for d in &update.deltas {
            if d.from >= k || d.to >= k {
                return Err(IdesError::InvalidInput(format!(
                    "delta ({}, {}) out of range for {k} landmarks",
                    d.from, d.to
                )));
            }
            if !d.rtt.is_finite() || d.rtt < 0.0 {
                return Err(IdesError::InvalidInput(format!(
                    "invalid RTT {} for delta ({}, {})",
                    d.rtt, d.from, d.to
                )));
            }
        }
        let rejoin = match rejoin {
            Some(job) => Some((job.inputs.route(k)?, job)),
            None => None,
        };

        // Apply the deltas and collect the touched landmarks in sorted
        // order (deterministic absorb order).
        let mut changed: Vec<usize> = Vec::new();
        for d in &update.deltas {
            self.landmarks[(d.from, d.to)] = d.rtt;
            changed.push(d.from);
            changed.push(d.to);
        }
        changed.sort_unstable();
        changed.dedup();
        self.epoch = update.epoch;

        // Per-row tier gate: refresh only when more hot Gram rows than
        // the policy's fraction allows — one badly drifted landmark is
        // absorbed, never a whole-model refit.
        let deviation = self.deviation();
        let hot_rows = self.hot_landmarks();
        let refreshed = hot_rows as f64 > self.policy.refresh_row_fraction * k as f64;
        drop(plan_span);

        if refreshed {
            let _span = tm::span(tm::Stage::Refresh);
            self.refresh()?;
        } else if !changed.is_empty() {
            let t = if auto {
                auto_fanout(changed.len(), threads, MIN_ABSORBS_PER_THREAD)
            } else {
                threads
            };
            self.absorb_level(&changed, t)?;
        }

        if let Some((route, job)) = rejoin {
            let RejoinInputs { d_out, d_in, .. } = job.inputs;
            let ctx = self.rejoin_ctx();
            let _span = (!route.full.is_empty() || !route.groups.is_empty())
                .then(|| tm::span(tm::Stage::Rejoin));
            if !route.full.is_empty() {
                cached_join_into(&ctx, d_out, d_in, &route.full, threads, job.sink)?;
            }
            rejoin_subset_groups(&ctx, &route.groups, d_out, d_in, job.sink)?;
        }

        Ok(EpochOutcome {
            epoch: update.epoch,
            applied: update.deltas.len(),
            absorbed: if refreshed { 0 } else { changed.len() },
            deviation,
            hot_rows,
            refreshed,
            sweeps: if refreshed {
                self.policy.sweep_budget
            } else {
                0
            },
        })
    }

    /// One epoch's absorbs: solve every landmark's new factor rows against
    /// the frozen epoch-start state (parallel over the detached scratch
    /// pool — each solve reads `&self` only), then commit them serially in
    /// the given (ascending) landmark order. One thread runs exactly that
    /// solve-all-then-commit-all sequence on its own, so the fan-out *is*
    /// the serial semantics, not an approximation of it.
    fn absorb_level(&mut self, landmarks: &[usize], threads: usize) -> Result<()> {
        // Detach the solution pool so the solve phase can borrow `self`
        // shared while writing into per-landmark buffers.
        let mut pool = std::mem::take(&mut self.scratch.pool);
        if pool.len() < landmarks.len() {
            pool.resize_with(landmarks.len(), AbsorbSolution::default);
        }
        let solve_span = tm::span(tm::Stage::AbsorbSolve);
        let solve_result: Result<()> = if threads <= 1 || landmarks.len() <= 1 {
            landmarks
                .iter()
                .zip(pool.iter_mut())
                .try_for_each(|(&l, sol)| self.solve_absorb(l, sol))
        } else {
            let ranges = shard_ranges(landmarks.len(), threads);
            let mut chunks: Vec<(&[usize], &mut [AbsorbSolution])> = Vec::new();
            let mut rest_l = landmarks;
            let mut rest_p = &mut pool[..landmarks.len()];
            for &(lo, hi) in &ranges {
                let (lhs_l, rhs_l) = rest_l.split_at(hi - lo);
                let (lhs_p, rhs_p) = std::mem::take(&mut rest_p).split_at_mut(hi - lo);
                chunks.push((lhs_l, lhs_p));
                rest_l = rhs_l;
                rest_p = rhs_p;
            }
            let mut slots: Vec<Option<Result<()>>> = Vec::new();
            slots.resize_with(chunks.len(), || None);
            std::thread::scope(|scope| {
                for (slot, (ls, sols)) in slots.iter_mut().zip(chunks) {
                    let server = &*self;
                    scope.spawn(move || {
                        *slot = Some(
                            ls.iter()
                                .zip(sols.iter_mut())
                                .try_for_each(|(&l, sol)| server.solve_absorb(l, sol)),
                        );
                    });
                }
            });
            slots
                .into_iter()
                .try_for_each(|s| s.expect("every solve thread ran"))
        };
        drop(solve_span);
        // Commit only when every solve succeeded: nothing was committed
        // yet, so a solve error leaves the model as it was.
        let commit_result = solve_result.and_then(|()| {
            let _span = tm::span(tm::Stage::AbsorbCommit);
            landmarks
                .iter()
                .zip(pool.iter())
                .try_for_each(|(&l, sol)| self.commit_absorb(l, sol))
        });
        // Restore the pool (with its grown high-water capacity) before
        // surfacing any error.
        self.scratch.pool = pool;
        commit_result
    }

    /// Solve phase of one absorb: recompute landmark `l`'s outgoing and
    /// incoming factor rows against the current (epoch-start) factors —
    /// via the cached Grams for ALS-family servers (`O(k d)` right-hand
    /// sides, `O(d²)` per solve), via ridge-augmented NNLS for NMF-family
    /// servers so factors stay nonnegative between refreshes. Reads
    /// `&self` only.
    fn solve_absorb(&self, l: usize, sol: &mut AbsorbSolution) -> Result<()> {
        let d = self.dim();
        let k = self.landmark_count();
        sol.col.clear();
        sol.col.extend((0..k).map(|i| self.landmarks[(i, l)]));
        if matches!(self.refit, RefreshStrategy::Nmf(_)) {
            // NNLS absorb tier: min ‖Y x − D[l, :]‖ + λ‖x‖² s.t. x ≥ 0
            // (and the mirrored incoming problem). The ridge is applied
            // the standard way — augmenting the design with √λ·I rows —
            // so the policy's λ knob binds this tier exactly like the
            // cached-Gram solves of the ALS branch. Lawson–Hanson
            // allocates its active-set scratch, so NMF absorbs trade the
            // zero-allocation property for the nonnegativity guarantee.
            let ridge = self.policy.ridge;
            sol.new_x.clear();
            sol.new_x.extend(super::nnls_ridge(
                self.model.y(),
                self.landmarks.row(l),
                ridge,
            )?);
            sol.new_y.clear();
            sol.new_y
                .extend(super::nnls_ridge(self.model.x(), &sol.col, ridge)?);
        } else {
            // New outgoing row: solve (YᵀY + λI) x = Yᵀ D[l, :].
            sol.new_x.clear();
            sol.new_x.resize(d, 0.0);
            self.model
                .y()
                .tr_matvec_into(self.landmarks.row(l), &mut sol.new_x)?;
            self.gram_y.solve_in_place(&mut sol.new_x)?;
            // New incoming row: solve (XᵀX + λI) y = Xᵀ D[:, l].
            sol.new_y.clear();
            sol.new_y.resize(d, 0.0);
            self.model.x().tr_matvec_into(&sol.col, &mut sol.new_y)?;
            self.gram_x.solve_in_place(&mut sol.new_y)?;
        }
        Ok(())
    }

    /// Commit phase of one absorb: swap the solved rows into the model and
    /// let the Grams absorb the change surgically; a failed downdate (mass
    /// loss beyond what the factor holds) falls back to one
    /// refactorization. Commits run serially in ascending landmark order —
    /// the deterministic merge.
    fn commit_absorb(&mut self, l: usize, sol: &AbsorbSolution) -> Result<()> {
        let ws = &mut self.scratch;
        ws.old_x.clear();
        ws.old_x.extend_from_slice(self.model.outgoing(l));
        ws.old_y.clear();
        ws.old_y.extend_from_slice(self.model.incoming(l));
        self.model.set_outgoing(l, &sol.new_x);
        self.model.set_incoming(l, &sol.new_y);
        let surgically = self
            .gram_y
            .replace_row(&self.scratch.old_y, &sol.new_y)
            .and_then(|()| self.gram_x.replace_row(&self.scratch.old_x, &sol.new_x));
        if surgically.is_err() {
            self.refactor_grams()?;
            self.gram_refactors += 1;
        }
        self.absorbed_total += 1;
        Ok(())
    }
}

/// The partial-subset leg of the rejoin: one gathered factorization
/// per distinct observed subset (the §6.2 grouped join), executed
/// serially in subset order so the floating-point sequence never depends
/// on the thread count. Measurement columns are gathered from the full
/// tables in subset order; per-host arithmetic is independent of the
/// group's row count, so results are bit-identical to per-host subset
/// joins.
fn rejoin_subset_groups(
    ctx: &RejoinCtx<'_>,
    groups: &[(Vec<usize>, Vec<usize>)],
    d_out: &[f64],
    d_in: &[f64],
    sink: &mut TileSink<'_>,
) -> Result<()> {
    if groups.is_empty() {
        return Ok(());
    }
    let k = ctx.model.x().rows();
    let mut ws = JoinWorkspace::new();
    let mut g_out = Matrix::zeros(0, 0);
    let mut g_in = Matrix::zeros(0, 0);
    let mut batch = BatchHostVectors::new();
    let opts = JoinOptions {
        solver: JoinSolver::NormalEquations,
        ridge: ctx.ridge,
    };
    for (subset, members) in groups {
        g_out.reset_shape(members.len(), subset.len());
        g_in.reset_shape(members.len(), subset.len());
        for (r, &h) in members.iter().enumerate() {
            for (c, &l) in subset.iter().enumerate() {
                g_out[(r, c)] = d_out[h * k + l];
                g_in[(r, c)] = d_in[h * k + l];
            }
        }
        join_hosts_subset_into(
            &mut ws,
            ctx.model.x(),
            ctx.model.y(),
            subset,
            &g_out,
            &g_in,
            opts,
            &mut batch,
        )?;
        sink(&HostRows::ids(members), &batch);
    }
    Ok(())
}
