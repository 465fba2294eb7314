//! Deterministic workload replay: drives an [`ides_netsim::workload`]
//! event stream against a [`ShardedEngine`] with **bit-reproducible**
//! results at any thread count and any shard count.
//!
//! Mutations (joins, leaves, drift epochs) are applied by the replay
//! driver in event order — so slot assignment, free-list reuse, and model
//! maintenance are one deterministic sequence — while runs of consecutive
//! query events execute as a parallel segment, sharded contiguously over
//! `threads` scoped threads. Queries are pure reads against snapshots
//! pinned once per segment ([`ShardedEngine::snapshots`]), and every
//! answer slot is written by exactly one thread, so the answer vector and
//! the final coordinate table are bit-identical whether a segment ran on
//! 1 thread or 16 — the property `tests/service_determinism.rs` pins.

use ides_netsim::workload::{Workload, WorkloadOp};

use crate::error::{IdesError, Result};
use crate::streaming::{EpochUpdate, MeasurementDelta};

use super::{NodeId, ShardedEngine};

/// Outcome of a deterministic replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// One answer per query event, in event order.
    pub answers: Vec<f64>,
    /// Hosts admitted.
    pub joins: usize,
    /// Hosts retired.
    pub leaves: usize,
    /// Drift epochs applied.
    pub epochs: usize,
    /// Version counter of the final published state (summed over
    /// shards — only comparable between equal shard counts).
    pub final_version: u64,
}

/// Converts a landmark-pair drift batch into the symmetric measurement
/// deltas [`crate::streaming::StreamingServer::apply_epoch`] expects
/// (each undirected sample lands in both matrix directions).
pub fn epoch_update_from_batch(batch: &ides_netsim::drift::EpochBatch) -> EpochUpdate {
    let mut deltas = Vec::with_capacity(batch.samples.len() * 2);
    for s in &batch.samples {
        deltas.push(MeasurementDelta {
            from: s.i,
            to: s.j,
            rtt: s.rtt,
        });
        deltas.push(MeasurementDelta {
            from: s.j,
            to: s.i,
            rtt: s.rtt,
        });
    }
    EpochUpdate {
        epoch: batch.epoch,
        deltas,
    }
}

/// Replays `workload` against `engine` (see the [module docs](self)).
///
/// The workload must have been generated for this engine's landmark
/// count; join/leave events reference pool hosts, which the replay maps
/// to engine slots as admissions execute.
pub fn replay(engine: &ShardedEngine, workload: &Workload, threads: usize) -> Result<ReplayReport> {
    if workload.landmark_count != engine.landmark_count() {
        return Err(IdesError::InvalidInput(format!(
            "workload was generated for {} landmarks, engine has {}",
            workload.landmark_count,
            engine.landmark_count()
        )));
    }
    let threads = threads.max(1);
    let k = workload.landmark_count;
    let mut slot_of: Vec<Option<NodeId>> = vec![None; workload.pool_size];
    let mut answers: Vec<f64> = Vec::new();
    let mut joins = 0usize;
    let mut leaves = 0usize;
    let mut epochs = 0usize;
    // Pending query segment: (a, b) pairs awaiting a parallel flush.
    let mut segment: Vec<(NodeId, NodeId)> = Vec::new();

    let node_of = |n: usize, slots: &[Option<NodeId>]| -> Result<NodeId> {
        if n < k {
            Ok(NodeId::Landmark(n))
        } else {
            slots[n - k].ok_or_else(|| {
                IdesError::InvalidInput(format!("query references unjoined pool host {}", n - k))
            })
        }
    };

    for event in &workload.events {
        match &event.op {
            WorkloadOp::Query { a, b } => {
                segment.push((node_of(*a, &slot_of)?, node_of(*b, &slot_of)?));
            }
            mutation => {
                flush_segment(engine, &mut segment, &mut answers, threads)?;
                match mutation {
                    WorkloadOp::Join { host, d_out, d_in } => {
                        let id = engine.join_direct(d_out, d_in)?;
                        slot_of[*host] = Some(id);
                        joins += 1;
                    }
                    WorkloadOp::Leave { host } => {
                        let id = slot_of[*host].take().ok_or_else(|| {
                            IdesError::InvalidInput(format!("leave of unjoined pool host {host}"))
                        })?;
                        engine.leave(id)?;
                        leaves += 1;
                    }
                    WorkloadOp::Drift(batch) => {
                        engine.apply_epoch(&epoch_update_from_batch(batch))?;
                        epochs += 1;
                    }
                    WorkloadOp::Query { .. } => unreachable!("handled above"),
                }
            }
        }
    }
    flush_segment(engine, &mut segment, &mut answers, threads)?;
    Ok(ReplayReport {
        answers,
        joins,
        leaves,
        epochs,
        final_version: engine.stats().version,
    })
}

/// Answers the buffered query segment, sharded contiguously over
/// `threads` scoped threads, appending to `answers` in segment order.
fn flush_segment(
    engine: &ShardedEngine,
    segment: &mut Vec<(NodeId, NodeId)>,
    answers: &mut Vec<f64>,
    threads: usize,
) -> Result<()> {
    if segment.is_empty() {
        return Ok(());
    }
    let view = engine.snapshots();
    let base = answers.len();
    answers.resize(base + segment.len(), 0.0);
    let out = &mut answers[base..];
    if threads <= 1 || segment.len() <= 1 {
        for (slot, &(a, b)) in out.iter_mut().zip(segment.iter()) {
            *slot = engine.estimate_on(&view, a, b)?;
        }
        segment.clear();
        return Ok(());
    }
    let chunk = segment.len().div_ceil(threads);
    let results: Vec<Result<()>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (out_chunk, pair_chunk) in out.chunks_mut(chunk).zip(segment.chunks(chunk)) {
            let view = &view;
            handles.push(scope.spawn(move || -> Result<()> {
                for (slot, &(a, b)) in out_chunk.iter_mut().zip(pair_chunk.iter()) {
                    *slot = engine.estimate_on(view, a, b)?;
                }
                Ok(())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("query shard thread panicked"))
            .collect()
    });
    segment.clear();
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::streaming::{StalenessPolicy, StreamingServer};
    use ides_datasets::DistanceMatrix;
    use ides_linalg::Matrix;
    use ides_netsim::workload::{self, WorkloadConfig};

    fn setup() -> (ShardedEngine, Workload) {
        let ds = ides_datasets::generators::p2psim_like(40, 23).expect("dataset");
        let landmarks: Vec<usize> = ds.row_hosts[..12].to_vec();
        let pool: Vec<usize> = ds.row_hosts[12..32].to_vec();
        let drift = ides_netsim::drift::DriftModel::new(0.2, 24.0, 23);
        let lm = Matrix::from_fn(12, 12, |a, b| {
            drift.rtt(&ds.topology, landmarks[a], landmarks[b], 0.0)
        });
        let server = StreamingServer::new(
            &DistanceMatrix::full("lm", lm).unwrap(),
            5,
            StalenessPolicy::default(),
        )
        .expect("server");
        let engine = ShardedEngine::new(server, 1, ServiceConfig::default()).expect("engine");
        let w = workload::generate(
            &ds.topology,
            &landmarks,
            &pool,
            &WorkloadConfig {
                seed: 23,
                requests: 400,
                join_weight: 0.10,
                leave_weight: 0.05,
                query_weight: 0.85,
                drift_amplitude: 0.2,
                drift_epochs: 6,
                ..WorkloadConfig::default()
            },
        );
        (engine, w)
    }

    #[test]
    fn replay_accounts_for_every_event() {
        let (engine, w) = setup();
        let queries = w
            .events
            .iter()
            .filter(|e| matches!(e.op, WorkloadOp::Query { .. }))
            .count();
        let report = replay(&engine, &w, 2).expect("replay");
        assert_eq!(report.answers.len(), queries);
        assert!(report.joins > 0, "workload should admit hosts");
        assert_eq!(report.epochs, 6);
        assert!(report.answers.iter().all(|v| v.is_finite()));
        let stats = engine.stats();
        assert_eq!(stats.queries, queries as u64);
        assert_eq!(stats.joins, report.joins as u64);
        assert_eq!(stats.epochs, 6);
    }

    #[test]
    fn replay_rejects_mismatched_workload() {
        let (engine, mut w) = setup();
        w.landmark_count = 5;
        assert!(replay(&engine, &w, 1).is_err());
    }
}
