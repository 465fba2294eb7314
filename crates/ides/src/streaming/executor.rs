//! Level-by-level executor for planned epochs.
//!
//! [`StreamingServer::apply_epoch_planned`] turns one epoch's update
//! batch into [`dag::EpochOp`]s, plans them with [`dag::EpochDag::build`],
//! and executes the plan as two tiers:
//!
//! 1. **Absorb tier** (the model-mutating half): each antichain level's
//!    absorb nodes solve their new factor rows in parallel against the
//!    level-start model and Grams — pure `&self` reads into a detached
//!    scratch pool — then commit serially in ascending node order
//!    (row swap + rank-1 Gram surgery), exactly the order a width-1
//!    serial plan commits in. Refresh barriers run alone at their level.
//! 2. **Rejoin tier** (the coordinate-writing half,
//!    [`run_rejoin_tier`]): the epoch's host rejoins run after every
//!    absorb has committed. Full-measurement hosts go through the tiled
//!    cached join ([`super::tile`]): fixed 256-host tiles, each read out
//!    of the measurement tables in place, solved in cache-resident
//!    scratch and handed to the caller's tile sink, with the thread
//!    fan-out splitting on tile boundaries; hosts with **partial observed
//!    sets** are grouped by identical subset and solved through
//!    [`crate::projection::join_hosts_subset_into`] — one gathered
//!    factorization per distinct subset, executed serially so the
//!    arithmetic never depends on the thread count. Full-measurement
//!    rejoins are *counted* in the plan (nodes, edges, level width), not
//!    materialised one DAG node per host.
//!
//! Running the whole rejoin tier after the whole absorb tier is bitwise
//! identical to level-interleaved execution: rejoins only *read* the
//! model and only *write* the coordinate table, absorbs never read
//! coordinates, and a subset rejoin planned below an absorb's level
//! observes none of the epoch's absorbed rows — its gathered reference
//! rows are the same bytes before and after the absorb commits. This
//! tier split is also what the cross-epoch pipeline
//! ([`StreamingServer::apply_epochs_pipelined`]) overlaps: epoch `N`'s
//! rejoin tier runs against a frozen end-of-epoch model clone while
//! epoch `N+1`'s absorb tier mutates the live server.
//!
//! **Pruning.** When the caller attests the coordinate table already
//! reflects the current model (`RejoinTables::coords_current`), a
//! partial-subset host whose subset contains no landmark this epoch
//! touched is *elided*: recomputing its row would read only unchanged
//! reference rows and unchanged measurements, reproducing the stored
//! bytes. Elided hosts are counted in [`PlanStats::pruned`].
//!
//! Because solves read frozen level-start state and commits land in a
//! fixed order, the executed result is **bit-identical to serial
//! application at any thread count** — parallelism changes *when* a solve
//! runs, never *what* it reads or the order its result is merged.
//!
//! [`StreamingServer::apply_epochs_pipelined`]: StreamingServer::apply_epochs_pipelined

use std::collections::BTreeMap;

use ides_linalg::Matrix;

/// Minimum absorb nodes per spawned thread before a level's solve phase
/// fans out under the automatic (`threads = None`) policy. One absorb
/// solve is a couple of `O(d²)` back-substitutions — a few microseconds —
/// while a scoped-thread spawn costs tens; below this grain parallelism
/// is a pure loss and the level runs serial (bit-identical either way).
const MIN_ABSORBS_PER_THREAD: usize = 32;

/// Effective thread count for a level of `n` nodes: the ambient cap,
/// clamped so each thread gets at least `min_per_thread` nodes.
fn auto_fanout(n: usize, cap: usize, min_per_thread: usize) -> usize {
    cap.min(n / min_per_thread).max(1)
}

use super::dag::{EpochDag, EpochOp, Observed, PlanStats};
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

/// The ordinary-host side of a planned epoch: the full measurement tables
/// and the coordinate cache whose affected rows the plan's rejoin nodes
/// refresh in place.
#[derive(Debug)]
pub struct RejoinTables<'a> {
    /// Hosts whose own measurements drifted this epoch (rows of the
    /// measurement matrices); each becomes one rejoin node.
    pub hosts: &'a [usize],
    /// Full `hosts x k` outgoing measurement matrix.
    pub d_out: &'a Matrix,
    /// Full `hosts x k` incoming measurement matrix.
    pub d_in: &'a Matrix,
    /// Cached coordinate table; only rows in `hosts` are rewritten.
    pub coords: &'a mut BatchHostVectors,
    /// Per-host observed-landmark subsets, parallel to `hosts`: the §6.2
    /// partial-measurement metadata that makes the plan dependency-exact.
    /// `None` means every host measured every landmark ([`Observed::All`]
    /// rejoin nodes — the conservative PR-8 plan). A host whose deduped
    /// subset covers all `k` landmarks routes through the cached full
    /// join, bitwise identical to the `None` case.
    pub observed: Option<&'a [Vec<usize>]>,
    /// Caller's attestation that `coords` already holds each partial-
    /// subset host's subset-join output against the **current** model
    /// (true after any epoch that rejoined them, e.g. a priming epoch).
    /// When set, partial hosts observing no landmark this epoch touched
    /// are elided — their recompute would be a bitwise no-op. Full-join
    /// hosts are never elided (the cached path reads the whole model).
    pub coords_current: bool,
}

impl<'a> RejoinTables<'a> {
    /// Tables for hosts that measured every landmark: no observed-set
    /// metadata, no currency attestation — the conservative plan.
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
            coords_current: false,
        }
    }

    /// Checks the tables against the server's shape (`k` landmarks, `dim`
    /// coordinates per direction) — both measurement tables `hosts × k`,
    /// the coordinate table `hosts × dim` — and splits them into the
    /// planner's inputs and the coordinate table the tiles land in.
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
            coords_current: self.coords_current,
        };
        Ok((inputs, self.coords))
    }

    /// Runs `run` on the [`RejoinJob`] these tables stand for — validated
    /// by [`RejoinTables::split`], its sink scattering each tile into the
    /// coordinate table — or on `None` when there are no tables.
    pub(crate) fn run_job<R>(
        tables: Option<Self>,
        k: usize,
        dim: usize,
        run: impl FnOnce(Option<RejoinJob<'_, '_>>) -> Result<R>,
    ) -> Result<R> {
        let Some(tables) = tables else {
            return run(None);
        };
        let (inputs, coords) = tables.split(k, dim)?;
        let mut sink =
            |rows: &HostRows<'_>, tile: &BatchHostVectors| scatter_tile(coords, rows, tile);
        run(Some(RejoinJob {
            inputs,
            sink: &mut sink,
        }))
    }
}

/// Everything a rejoin reads: the hosts (rows of the measurement tables),
/// the two flattened `hosts × k` tables, the observed-set metadata and the
/// currency attestation (see [`RejoinTables`], whose crate-internal form
/// this is). It holds no reference to the coordinate bytes, so the
/// pipeline can plan epoch `N+1` on the main thread while epoch `N`'s
/// rejoin tier is still writing them.
#[derive(Debug, Clone)]
pub(crate) struct RejoinInputs<'a> {
    pub hosts: HostRows<'a>,
    pub d_out: &'a [f64],
    pub d_in: &'a [f64],
    pub observed: Option<&'a [Vec<usize>]>,
    pub coords_current: bool,
}

impl RejoinInputs<'_> {
    /// Both tables `hosts × k`, every host a row of them, one observed set
    /// per host.
    fn validate(&self, k: usize) -> Result<()> {
        check_rows(self.d_out, self.d_in, k, &self.hosts)?;
        match self.observed {
            Some(obs) if obs.len() != self.hosts.len() => Err(IdesError::InvalidInput(format!(
                "{} observed sets for {} rejoin hosts",
                obs.len(),
                self.hosts.len()
            ))),
            _ => Ok(()),
        }
    }
}

/// A rejoin as the executor runs it: the inputs plus the sink the finished
/// tiles are handed to — a scatter into the caller's coordinate table for
/// [`RejoinTables`], fresh chunk-tree chunks for the serving engine.
pub(crate) struct RejoinJob<'a, 's> {
    pub inputs: RejoinInputs<'a>,
    pub sink: &'s mut TileSink<'s>,
}

/// How the rejoin tier reaches each planned host: full-measurement hosts
/// take the tiled cached join, partial-subset hosts are grouped by
/// identical (deduped, sorted) subset for one gathered factorization per
/// group, and pruned hosts were elided at plan time.
#[derive(Debug)]
pub(crate) struct RejoinRoute<'a> {
    /// Hosts joining through every landmark (cached full join), in input
    /// order: the caller's own host list when no observed sets are given,
    /// an owned sub-list otherwise.
    pub full: HostRows<'a>,
    /// `(subset, member hosts)` per distinct partial subset, in subset
    /// order (deterministic `BTreeMap` grouping); members in input order.
    pub groups: Vec<(Vec<usize>, Vec<usize>)>,
    /// Hosts elided because their subset misses every landmark this epoch
    /// touched while `coords_current` attested their rows were current.
    pub pruned: usize,
}

/// One planned epoch, ready to execute: the leveled DAG, its shape
/// statistics (pruning accounted), the rejoin routing, and the outcome
/// the caller reports. Produced by [`StreamingServer::plan_epoch`] with
/// the deltas already applied to the measurement matrix.
#[derive(Debug)]
pub(crate) struct PlannedEpoch<'a> {
    pub dag: EpochDag,
    pub stats: PlanStats,
    pub route: RejoinRoute<'a>,
    pub outcome: EpochOutcome,
}

impl StreamingServer {
    /// Ingests one epoch of measurement deltas and maintains the model
    /// through a planned dependency DAG: absorb/refresh nodes per the
    /// staleness policy, plus one rejoin node per host in `rejoin` (when
    /// given).
    ///
    /// `threads = None` is the production policy: the ambient
    /// `IDES_LINALG_THREADS`-resolved cap, with the absorb levels' fan-out
    /// clamped by work size (`MIN_ABSORBS_PER_THREAD`) so levels too small
    /// to amortize a thread spawn run serial. `Some(t)` executes with
    /// exactly `t` threads, no heuristic — the determinism suites use it
    /// to force real fan-out at small scale. The rejoin tier fans out on
    /// tile boundaries under either policy (never more threads than
    /// 256-host tiles). Either way the committed state is **bit-identical
    /// to `threads = Some(1)`** — see the executor module docs for the
    /// phase structure that guarantees it.
    ///
    /// Both measurement tables and the coordinate table are validated
    /// before anything is applied: a rejected call leaves the server
    /// exactly as it was.
    ///
    /// Returns the epoch outcome together with the executed plan's
    /// [`PlanStats`].
    pub fn apply_epoch_planned(
        &mut self,
        update: &EpochUpdate,
        rejoin: Option<RejoinTables<'_>>,
        threads: Option<usize>,
    ) -> Result<(EpochOutcome, PlanStats)> {
        let (k, dim) = (self.landmark_count(), self.dim());
        RejoinTables::run_job(rejoin, k, dim, |job| {
            self.apply_epoch_job(update, job, threads)
        })
    }

    /// [`StreamingServer::apply_epoch_planned`] over a [`RejoinJob`]: the
    /// same plan / absorb tier / rejoin tier, with the rejoined tiles
    /// handed to the job's sink.
    pub(crate) fn apply_epoch_job(
        &mut self,
        update: &EpochUpdate,
        rejoin: Option<RejoinJob<'_, '_>>,
        threads: Option<usize>,
    ) -> Result<(EpochOutcome, PlanStats)> {
        let auto = threads.is_none();
        let threads = threads.unwrap_or_else(eval_threads).max(1);
        let planned = self.plan_epoch(update, rejoin.as_ref().map(|r| &r.inputs))?;
        self.run_absorb_tier(&planned, threads, auto)?;
        if let Some(r) = rejoin {
            run_rejoin_tier(
                &self.rejoin_ctx(),
                &planned.route,
                r.inputs.d_out,
                r.inputs.d_in,
                threads,
                r.sink,
            )?;
        }
        Ok((planned.outcome, planned.stats))
    }

    /// Validates one epoch's inputs, applies its deltas to the landmark
    /// matrix, picks the maintenance tier per Gram row, and plans the
    /// dependency DAG plus the rejoin routing. Mutates only the
    /// measurement matrix and the epoch stamp — the model-changing work
    /// is [`StreamingServer::run_absorb_tier`] and the coordinate-writing
    /// work [`run_rejoin_tier`], so the pipeline can stage them.
    pub(crate) fn plan_epoch<'a>(
        &mut self,
        update: &EpochUpdate,
        rejoin: Option<&RejoinInputs<'a>>,
    ) -> Result<PlannedEpoch<'a>> {
        let _span = tm::span(tm::Stage::Plan);
        let k = self.landmark_count();
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
        if let Some(r) = rejoin {
            r.validate(k)?;
        }

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
        // absorbed, never a whole-model barrier.
        let deviation = self.deviation();
        let hot_rows = self.hot_landmarks();
        let refreshed = hot_rows as f64 > self.policy.refresh_row_fraction * k as f64;

        // Plan: one refresh barrier or one absorb per changed landmark,
        // then one rejoin per (non-elided) affected host.
        let mut ops: Vec<EpochOp> = Vec::new();
        if refreshed {
            ops.push(EpochOp::Refresh);
        } else {
            ops.extend(changed.iter().map(|&l| EpochOp::Absorb { landmark: l }));
        }
        let mut route = RejoinRoute {
            full: HostRows::range(0..0),
            groups: Vec::new(),
            pruned: 0,
        };
        // Full-measurement rejoins the DAG counts without a node each.
        let mut counted_rejoins = 0;
        if let Some(r) = rejoin {
            match r.observed {
                None => {
                    counted_rejoins = r.hosts.len();
                    route.full = r.hosts.clone();
                }
                Some(subsets) => {
                    let mut full = Vec::new();
                    let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
                    for (h, raw) in r.hosts.iter().zip(subsets) {
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
                            // Full coverage: the cached full join, bitwise
                            // identical to the Observed::All plan.
                            ops.push(EpochOp::Rejoin {
                                host: h,
                                observed: Observed::All,
                            });
                            full.push(h);
                        } else if r.coords_current
                            && !refreshed
                            && s.iter().all(|l| changed.binary_search(l).is_err())
                        {
                            // No observed landmark changed and the stored
                            // row is current: recompute is a bitwise no-op.
                            route.pruned += 1;
                        } else {
                            ops.push(EpochOp::Rejoin {
                                host: h,
                                observed: Observed::Subset(s.clone()),
                            });
                            groups.entry(s).or_default().push(h);
                        }
                    }
                    route.full = HostRows::Ids(full.into());
                    route.groups = groups.into_iter().collect();
                }
            }
        }
        let dag = EpochDag::build_with_full_rejoins(k, ops, counted_rejoins);
        let mut stats = dag.stats();
        // Elided rejoins never reach the DAG; fold their worst-case
        // Observed::All edges (one per absorb) into the denominator and
        // their count into `pruned`.
        stats.pruned = route.pruned;
        stats.full_edges += route.pruned * changed.len();

        let absorbed = if refreshed { 0 } else { changed.len() };
        let sweeps = if refreshed {
            self.policy.sweep_budget
        } else {
            0
        };
        Ok(PlannedEpoch {
            dag,
            stats,
            route,
            outcome: EpochOutcome {
                epoch: update.epoch,
                applied: update.deltas.len(),
                absorbed,
                deviation,
                hot_rows,
                refreshed,
                sweeps,
            },
        })
    }

    /// The model-mutating half of a planned epoch: every antichain
    /// level's absorb nodes (parallel solves, serial in-order commits)
    /// and refresh barriers, in level order. Rejoin nodes are skipped —
    /// they form the tier [`run_rejoin_tier`] executes afterwards (or
    /// the pipeline overlaps with the next epoch).
    pub(crate) fn run_absorb_tier(
        &mut self,
        planned: &PlannedEpoch<'_>,
        threads: usize,
        auto: bool,
    ) -> Result<()> {
        for level in planned.dag.levels() {
            let mut absorbs: Vec<usize> = Vec::new();
            let mut refresh = false;
            for &node in level {
                match &planned.dag.ops()[node] {
                    EpochOp::Absorb { landmark } => absorbs.push(*landmark),
                    EpochOp::Rejoin { .. } => {}
                    EpochOp::Refresh => refresh = true,
                }
            }
            if refresh {
                let _span = tm::span(tm::Stage::Refresh);
                self.refresh()?;
            }
            if !absorbs.is_empty() {
                let t = if auto {
                    auto_fanout(absorbs.len(), threads, MIN_ABSORBS_PER_THREAD)
                } else {
                    threads
                };
                self.absorb_level(&absorbs, t)?;
            }
        }
        Ok(())
    }

    /// One level's absorbs: solve every landmark's new factor rows against
    /// the frozen level-start state (parallel over the detached scratch
    /// pool — each solve reads `&self` only), then commit them serially in
    /// node order. A width-1 level degenerates to exactly the serial
    /// solve-then-commit sequence, so the staged schedule *is* the serial
    /// semantics, not an approximation of it.
    fn absorb_level(&mut self, landmarks: &[usize], threads: usize) -> Result<()> {
        // Detach the solution pool so the solve phase can borrow `self`
        // shared while writing into per-node buffers.
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
        // Commit in node order even if a solve failed part-way: nothing
        // was committed yet, so an error leaves the level unapplied.
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
    /// incoming factor rows against the current (level-start) factors —
    /// via the cached Grams for ALS-family servers (`O(k d)` right-hand
    /// sides, `O(d²)` per solve), via ridge-augmented NNLS for NMF-family
    /// servers so factors stay nonnegative between refreshes. Reads
    /// `&self` only; the arithmetic is exactly the pre-DAG serial absorb's
    /// solve sequence.
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
    /// refactorization. Commits run serially in ascending node order —
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

/// Executes one planned epoch's rejoin tier against an explicit
/// [`RejoinCtx`] — the live server's borrowed state on the barriered
/// path, a frozen end-of-epoch clone on the pipelined path (bitwise
/// identical either way: clones are exact byte copies and the arithmetic
/// reads nothing else). Full-measurement hosts run through the tiled
/// cached join on up to `threads` workers; every finished tile and every
/// subset group's batch goes to `sink`.
pub(crate) fn run_rejoin_tier(
    ctx: &RejoinCtx<'_>,
    route: &RejoinRoute<'_>,
    d_out: &[f64],
    d_in: &[f64],
    threads: usize,
    sink: &mut TileSink<'_>,
) -> Result<()> {
    let _span =
        (!route.full.is_empty() || !route.groups.is_empty()).then(|| tm::span(tm::Stage::Rejoin));
    if !route.full.is_empty() {
        cached_join_into(ctx, d_out, d_in, &route.full, threads, sink)?;
    }
    rejoin_subset_groups(ctx, &route.groups, d_out, d_in, sink)
}

/// The partial-subset leg of the rejoin tier: one gathered factorization
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
