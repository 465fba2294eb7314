//! Cross-epoch pipelined execution.
//!
//! [`StreamingServer::apply_epochs_pipelined`] drives a queue of epoch
//! updates through a two-stage hand-off that overlaps epoch `N`'s rejoin
//! tier with epoch `N+1`'s plan and absorb phases:
//!
//! ```text
//!   epoch N   : plan ── absorb tier ──┐ freeze model
//!   epoch N+1 :                       ├─ plan ── absorb tier (live server)
//!   (overlap)                         └─ rejoin tier N (frozen clone) ──▶ coords
//! ```
//!
//! The hand-off is sound — and **bitwise identical to back-to-back
//! serial epochs** — because the two stages touch disjoint state:
//!
//! * The rejoin tier reads only the factor model, the cached Grams, and
//!   the ridge, all captured in a [`FrozenModel`] **clone** taken at the
//!   end of epoch `N`'s absorb tier — exact byte copies, so the
//!   arithmetic matches a barriered rejoin against the live server at
//!   the same point.
//! * The rejoin tier writes only the caller's coordinate table; the
//!   planner reads the host list and observed-set metadata (the
//!   `RejoinInputs`, which hold no reference to the coordinates) but
//!   never the coordinate bytes; the absorb tier reads and writes only
//!   the server (model, Grams, measurement matrix). No byte is shared.
//! * Rejoin tiers still execute in epoch order (one in flight at a
//!   time), so each host row holds exactly the bytes the serial schedule
//!   would have left.
//!
//! After the first epoch the driver marks the caller's tables
//! `coords_current`: every partial-subset host was either rejoined
//! against the epoch-end model or already current, which is the
//! invariant the planner's skip elision (see the executor docs) relies
//! on — localized drift then prunes untouched hosts from every later
//! epoch's plan.
//!
//! One **long-lived worker thread** serves every rejoin tier of a batch,
//! fed frozen models through a channel, rather than a scoped spawn per
//! epoch: the spawn cost (stack mapping, allocator-arena warm-up for the
//! gathered subset matrices) is paid once per batch instead of once per
//! epoch, which is what keeps the pipeline at parity even on a
//! single-core runner. Below
//! [`StalenessPolicy::min_pipeline_hosts`](super::StalenessPolicy::min_pipeline_hosts)
//! rejoin hosts even that amortized cost outweighs the overlap, so the
//! automatic thread policy runs such batches barriered (same bits; an
//! explicit thread count bypasses the clamp).

use std::sync::mpsc;

use super::dag::PlanStats;
use super::executor::{run_rejoin_tier, RejoinJob, RejoinRoute};
use super::{EpochOutcome, EpochUpdate, RejoinTables, StreamingServer};
use crate::error::Result;
use crate::eval::eval_threads;
use crate::telemetry as tm;
use ides_linalg::solve::CachedGram;
use ides_mf::FactorModel;

/// What one pipelined run did: per-epoch outcomes and plan statistics in
/// input order, plus how many rejoin tiers actually overlapped a
/// successor's absorb tier (feeds the service's overlap fraction).
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// One `(outcome, stats)` per applied update, in input order —
    /// exactly what back-to-back [`StreamingServer::apply_epoch_planned`]
    /// calls would have returned.
    pub outcomes: Vec<(EpochOutcome, PlanStats)>,
    /// Epochs whose rejoin tier ran concurrently with the next epoch's
    /// absorb tier (`n - 1` for an `n`-epoch batch with rejoin tables;
    /// 0 without tables or for a single epoch).
    pub overlapped: usize,
}

/// The frozen end-of-epoch state a pipelined rejoin tier solves against
/// while the live server has already moved on: the factor model, both
/// cached join Grams, and the ridge — byte-exact clones, so the tier's
/// arithmetic is bit-identical to a barriered rejoin at the same point.
#[derive(Debug)]
struct FrozenModel {
    model: FactorModel,
    gram_x: CachedGram,
    gram_y: CachedGram,
    ridge: f64,
}

impl FrozenModel {
    fn ctx(&self) -> super::RejoinCtx<'_> {
        super::RejoinCtx {
            model: &self.model,
            gram_x: &self.gram_x,
            gram_y: &self.gram_y,
            ridge: self.ridge,
        }
    }
}

impl StreamingServer {
    /// Clones the rejoin-visible state at the current point — the
    /// pipeline's stage boundary.
    fn freeze(&self) -> FrozenModel {
        FrozenModel {
            model: self.model.clone(),
            gram_x: self.gram_x.clone(),
            gram_y: self.gram_y.clone(),
            ridge: self.policy.ridge,
        }
    }

    /// Applies `updates` in order with epoch `N`'s rejoin tier overlapped
    /// against epoch `N+1`'s absorb tier — output **bit-identical to
    /// back-to-back [`StreamingServer::apply_epoch_planned`] calls** with
    /// the same tables and thread count (see the module docs for the
    /// disjointness argument). `threads` follows the same `None` = auto /
    /// `Some(t)` = exact convention as the barriered entry point, applied
    /// to both concurrent stages.
    ///
    /// Without rejoin tables there is nothing to overlap and the epochs
    /// run back-to-back. With tables, `coords_current` is upgraded after
    /// the first epoch (the priming epoch establishes the skip-elision
    /// invariant), so localized-drift batches prune untouched partial-
    /// subset hosts from the second epoch on.
    ///
    /// Under the automatic thread policy, batches with fewer than
    /// [`StalenessPolicy::min_pipeline_hosts`] rejoin hosts skip the
    /// worker entirely and run barriered — the hand-off cost would
    /// exceed the overlap win (same bits, `overlapped` reports 0). An
    /// explicit thread count bypasses the clamp, which is how the
    /// determinism suites pipeline at test scale.
    ///
    /// [`StalenessPolicy::min_pipeline_hosts`]: super::StalenessPolicy::min_pipeline_hosts
    pub fn apply_epochs_pipelined(
        &mut self,
        updates: &[EpochUpdate],
        rejoin: Option<RejoinTables<'_>>,
        threads: Option<usize>,
    ) -> Result<PipelineReport> {
        let (k, dim) = (self.landmark_count(), self.dim());
        RejoinTables::run_job(rejoin, k, dim, |job| {
            self.apply_epochs_job(updates, job, threads)
        })
    }

    /// [`StreamingServer::apply_epochs_pipelined`] over a [`RejoinJob`]:
    /// the same pipeline, with every rejoined tile handed to the job's
    /// sink (by the worker thread when the batch pipelines).
    pub(crate) fn apply_epochs_job(
        &mut self,
        updates: &[EpochUpdate],
        rejoin: Option<RejoinJob<'_, '_>>,
        threads: Option<usize>,
    ) -> Result<PipelineReport> {
        let auto = threads.is_none();
        let t = threads.unwrap_or_else(eval_threads).max(1);
        let mut outcomes = Vec::with_capacity(updates.len());
        let Some(RejoinJob {
            inputs: mut view,
            sink,
        }) = rejoin
        else {
            // No coordinate table: the absorb tiers are the whole epochs.
            for u in updates {
                let prev = tm::set_epoch(u.epoch);
                let planned = self.plan_epoch(u, None)?;
                self.run_absorb_tier(&planned, t, auto)?;
                tm::set_epoch(prev);
                outcomes.push((planned.outcome, planned.stats));
            }
            return Ok(PipelineReport {
                outcomes,
                overlapped: 0,
            });
        };
        if updates.is_empty() {
            return Ok(PipelineReport {
                outcomes,
                overlapped: 0,
            });
        }
        // The view holds the caller's slices, never the coordinate bytes,
        // so planning can run while the worker holds the sink.
        let (d_out, d_in) = (view.d_out, view.d_in);
        if auto && view.hosts.len() < self.policy.min_pipeline_hosts {
            // Work-aware clamp (see `StalenessPolicy::min_pipeline_hosts`):
            // rejoin tiers this small can't amortize the worker spawn and
            // per-epoch hand-off, so run the same plan/absorb/rejoin
            // sequence barriered — bit-identical, including the
            // coords-current upgrade the skip elision relies on.
            for u in updates {
                let prev = tm::set_epoch(u.epoch);
                let planned = self.plan_epoch(u, Some(&view))?;
                self.run_absorb_tier(&planned, t, auto)?;
                run_rejoin_tier(&self.rejoin_ctx(), &planned.route, d_out, d_in, t, sink)?;
                tm::set_epoch(prev);
                view.coords_current = true;
                outcomes.push((planned.outcome, planned.stats));
            }
            return Ok(PipelineReport {
                outcomes,
                overlapped: 0,
            });
        }
        let mut overlapped = 0usize;
        std::thread::scope(|scope| -> Result<()> {
            // One worker owns the coordinate sink for the whole batch and
            // executes rejoin tiers in epoch order as frozen models arrive.
            let (job_tx, job_rx) = mpsc::channel::<(FrozenModel, RejoinRoute<'_>, f64)>();
            let (done_tx, done_rx) = mpsc::channel::<Result<()>>();
            scope.spawn(move || {
                // Each job carries its epoch so the worker's rejoin spans
                // are labeled with the epoch they solve, not the one the
                // main thread has moved on to.
                for (frozen, route, epoch) in job_rx {
                    tm::set_epoch(epoch);
                    let r = run_rejoin_tier(&frozen.ctx(), &route, d_out, d_in, t, sink);
                    if done_tx.send(r).is_err() {
                        break;
                    }
                }
            });
            let mut in_flight = false;
            let mut drive = |overlapped: &mut usize,
                             outcomes: &mut Vec<(EpochOutcome, PlanStats)>|
             -> Result<()> {
                for u in updates {
                    // Stage hand-off: while the worker solves the previous
                    // epoch's rejoin tier against its frozen clone, the
                    // main thread plans this epoch and runs its absorb
                    // tier on the live server. The stages touch disjoint
                    // bytes (module docs), so the completion barrier
                    // below restores exactly the serial schedule's state.
                    let prev = tm::set_epoch(u.epoch);
                    let planned = self.plan_epoch(u, Some(&view))?;
                    self.run_absorb_tier(&planned, t, auto)?;
                    if in_flight {
                        done_rx.recv().expect("rejoin worker alive")?;
                        *overlapped += 1;
                    }
                    {
                        let _handoff = tm::span(tm::Stage::PipelineHandoff);
                        job_tx
                            .send((self.freeze(), planned.route, u.epoch))
                            .expect("rejoin worker alive");
                    }
                    tm::set_epoch(prev);
                    in_flight = true;
                    // Every partial-subset host is now rejoined-or-current
                    // once the in-flight tier lands; later plans may elide
                    // untouched hosts (their in-flight row, if any, is
                    // computed against a model whose observed rows later
                    // epochs leave unchanged).
                    view.coords_current = true;
                    outcomes.push((planned.outcome, planned.stats));
                }
                Ok(())
            };
            let driven = drive(&mut overlapped, &mut outcomes);
            // Close the queue on every path so the worker always exits
            // (the scope would otherwise deadlock joining it), then drain
            // the last tier's completion: it has no successor to overlap.
            drop(job_tx);
            let drained = if in_flight {
                done_rx.recv().expect("rejoin worker alive")
            } else {
                Ok(())
            };
            driven.and(drained)
        })?;
        Ok(PipelineReport {
            outcomes,
            overlapped,
        })
    }
}
