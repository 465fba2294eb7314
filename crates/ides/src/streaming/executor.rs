//! The epoch executor: a landmark step, then a host step.
//!
//! The paper's drift epoch (§5.1) is two steps — the information server
//! updates the landmark factors, then every ordinary host is re-solved
//! against them — and each is one call here:
//!
//! * [`StreamingServer::apply_epoch`], **the landmark step**, serial:
//!   1. **Validate** the deltas.
//!   2. **Apply the deltas** to the measured landmark matrix and pick the
//!      maintenance tier per Gram row (the staleness policy's row gate).
//!   3. **Refresh** (warm partial refit) or **absorb** (join every
//!      changed landmark to the epoch-start model in one cached-join call:
//!      ≈ 25–32 µs for all 64 at `k = 64`, `d = 16`, one thread) into a new
//!      [`LandmarkModel`].
//!   4. **Swap or undo**: a step that succeeded replaces the served model
//!      whole; a failed one puts back the measurements it overwrote.
//! * [`StreamingServer::rejoin`], **the host step**: validated against the
//!   server's shape before the first coordinate write. Full-measurement
//!   hosts go through the tiled cached join ([`super::tile`]): fixed
//!   256-host tiles, each read out of the measurement tables in place,
//!   solved in cache-resident scratch and scattered into the coordinate
//!   table, with workers splitting on tile boundaries; hosts with
//!   **partial observed sets** (§6.2) are grouped by identical subset and
//!   solved through [`crate::projection::join_hosts_subset_into`] — one
//!   gathered factorization per distinct subset, executed serially so the
//!   arithmetic never depends on the worker count.
//!
//! The rejoin only reads the model and only writes coordinates; the
//! landmark step never reads coordinates. A rejoin is therefore a pure
//! function of the model it runs against and the hosts' measurement rows:
//! `n` landmark steps followed by one rejoin leave the same bits as `n`
//! epochs of one step and one rejoin each.

use std::collections::BTreeMap;

use ides_linalg::Matrix;

use std::sync::Arc;

use super::tile::{check_rows, scatter_tile, HostRows, TileSink};
use super::{EpochOutcome, EpochUpdate, LandmarkModel, StreamingServer};
use crate::error::{IdesError, Result};
use crate::projection::{
    join_hosts_subset_into, BatchHostVectors, JoinOptions, JoinSolver, JoinWorkspace,
};
use crate::telemetry as tm;

/// The ordinary-host side of an epoch: the full measurement tables and
/// the coordinate cache whose affected rows [`StreamingServer::rejoin`]
/// refreshes in place.
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

    /// Validates the tables against the server's shape (`k` landmarks,
    /// `dim` coordinates per direction) — both measurement tables
    /// `hosts × k`, the coordinate table `hosts × dim`, every host a row of
    /// them, one non-empty in-range observed set per host — and decides
    /// how the rejoin reaches each host. Reads only; an `Err` here means
    /// nothing was written anywhere.
    fn route(&self, k: usize, dim: usize) -> Result<RejoinRoute<'a>> {
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
        let hosts = HostRows::ids(self.hosts);
        check_rows(self.d_out.as_slice(), self.d_in.as_slice(), k, &hosts)?;
        let Some(subsets) = self.observed else {
            return Ok(RejoinRoute {
                full: hosts,
                groups: Vec::new(),
            });
        };
        if subsets.len() != hosts.len() {
            return Err(IdesError::InvalidInput(format!(
                "{} observed sets for {} rejoin hosts",
                subsets.len(),
                hosts.len()
            )));
        }
        let mut full = Vec::new();
        let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
        for (h, raw) in hosts.iter().zip(subsets) {
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
    /// The landmark step of an epoch: ingests one batch of measurement
    /// deltas and maintains the model — absorb or refresh, per the
    /// staleness policy. See the [`streaming`](super) module docs for the
    /// tiers and their costs. The step builds a new [`LandmarkModel`] and
    /// swaps it in whole only when every part of it succeeded: a rejected
    /// update — invalid deltas, or factors whose Grams cannot be factored —
    /// leaves the server exactly as it was.
    pub fn apply_epoch(&mut self, update: &EpochUpdate) -> Result<EpochOutcome> {
        let k = self.landmark_count();

        let plan_span = tm::span(tm::Stage::Plan);
        if !update.epoch.is_finite() {
            return Err(IdesError::InvalidInput(format!(
                "epoch stamp {} is not finite",
                update.epoch
            )));
        }
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

        // Apply the deltas, remembering what each overwrote, and collect
        // the touched landmarks in sorted order (deterministic absorb
        // order).
        let mut undo = Vec::with_capacity(update.deltas.len());
        let mut changed: Vec<usize> = Vec::new();
        for d in &update.deltas {
            let old = std::mem::replace(&mut self.landmarks[(d.from, d.to)], d.rtt);
            undo.push((d.from, d.to, old));
            changed.push(d.from);
            changed.push(d.to);
        }
        changed.sort_unstable();
        changed.dedup();

        // Per-row tier gate: refresh only when more hot Gram rows than
        // the policy's fraction allows — one badly drifted landmark is
        // absorbed, never a whole-model refit.
        let (deviation, hot_rows) = self.drift();
        let refreshed = hot_rows as f64 > self.policy.refresh_row_fraction * k as f64;
        drop(plan_span);

        let stepped = if refreshed {
            let _span = tm::span(tm::Stage::Refresh);
            self.refit_model(true).map(Some)
        } else if changed.is_empty() {
            Ok(None)
        } else {
            self.absorb(&changed).map(Some)
        };
        match stepped {
            Ok(Some(model)) => self.model = Arc::new(model),
            Ok(None) => {}
            Err(e) => {
                for &(from, to, old) in undo.iter().rev() {
                    self.landmarks[(from, to)] = old;
                }
                return Err(e);
            }
        }
        if refreshed {
            self.baseline = self.landmarks.clone();
            self.refreshes += 1;
        } else {
            self.absorbed_total += changed.len();
        }
        self.epoch = update.epoch;

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

    /// The host step of an epoch: re-joins the hosts in `tables` against
    /// the current model, scattering the fresh vectors into the coordinate
    /// table and leaving every other host's cached coordinates untouched —
    /// the staleness policy applied to ordinary hosts. Full-measurement
    /// hosts run the tiled cached join, bit-identical at any worker count;
    /// partial observed sets (§6.2) run one gathered factorization per
    /// distinct subset. Both measurement tables, the coordinate table, the
    /// host ids and the observed sets are validated before anything is
    /// written.
    pub fn rejoin(&self, tables: RejoinTables<'_>) -> Result<()> {
        let route = tables.route(self.landmark_count(), self.dim())?;
        let RejoinTables {
            d_out,
            d_in,
            coords,
            ..
        } = tables;
        let _span = tm::span(tm::Stage::Rejoin);
        let sink =
            &mut |rows: &HostRows<'_>, tile: &BatchHostVectors| scatter_tile(coords, rows, tile);
        self.model
            .join_into(d_out.as_slice(), d_in.as_slice(), &route.full, sink)?;
        rejoin_subset_groups(
            &self.model,
            &route.groups,
            d_out.as_slice(),
            d_in.as_slice(),
            sink,
        )
    }

    /// [`StreamingServer::rejoin`] for hosts that measured every landmark:
    /// re-joins the `affected` rows of the full `hosts x k` measurement
    /// matrices into `coords`.
    pub fn rejoin_affected(
        &self,
        affected: &[usize],
        d_out: &Matrix,
        d_in: &Matrix,
        coords: &mut BatchHostVectors,
    ) -> Result<()> {
        self.rejoin(RejoinTables::full(affected, d_out, d_in, coords))
    }

    /// One epoch's absorbs: every changed landmark's factor rows are
    /// re-solved against the epoch-start model and written into a copy of
    /// its factors (the solve), which is then factored into the epoch's new
    /// model (the commit). Reads `&self` only.
    ///
    /// The solve is a host join: each changed landmark joins the
    /// epoch-start model with its drifted row of the landmark matrix as
    /// outgoing and its column (its row of the transpose) as incoming
    /// measurements, one [`LandmarkModel::join_into`] call for all of them.
    fn absorb(&self, landmarks: &[usize]) -> Result<LandmarkModel> {
        let solve_span = tm::span(tm::Stage::AbsorbSolve);
        let mut candidate = self.model().clone();
        // Row `r` of the two tables is landmark `landmarks[r]`'s row and
        // column of the landmark matrix.
        let d_out = self.landmarks.select_rows(landmarks);
        let d_in = Matrix::from_fn(landmarks.len(), self.landmark_count(), |r, i| {
            self.landmarks[(i, landmarks[r])]
        });
        let sink = &mut |rows: &HostRows<'_>, tile: &BatchHostVectors| {
            for (i, r) in rows.iter().enumerate() {
                candidate.set_outgoing(landmarks[r], tile.outgoing(i));
                candidate.set_incoming(landmarks[r], tile.incoming(i));
            }
        };
        let rows = HostRows::range(0..landmarks.len());
        self.model
            .join_into(d_out.as_slice(), d_in.as_slice(), &rows, sink)?;
        drop(solve_span);
        let _span = tm::span(tm::Stage::AbsorbCommit);
        LandmarkModel::factor(candidate, self.policy.ridge)
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
    lm: &LandmarkModel,
    groups: &[(Vec<usize>, Vec<usize>)],
    d_out: &[f64],
    d_in: &[f64],
    sink: &mut TileSink<'_>,
) -> Result<()> {
    if groups.is_empty() {
        return Ok(());
    }
    let (x, y) = (lm.model.x(), lm.model.y());
    let k = x.rows();
    let mut ws = JoinWorkspace::new();
    let mut g_out = Matrix::zeros(0, 0);
    let mut g_in = Matrix::zeros(0, 0);
    let mut batch = BatchHostVectors::new();
    let opts = JoinOptions {
        solver: JoinSolver::NormalEquations,
        ridge: lm.gram_y.lambda(),
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
        join_hosts_subset_into(&mut ws, x, y, subset, &g_out, &g_in, opts, &mut batch)?;
        sink(&HostRows::ids(members), &batch);
    }
    Ok(())
}
