//! Streaming coordinate maintenance under drift: accuracy vs staleness.
//!
//! The long-running-service experiment behind the `ides::streaming`
//! subsystem. A ±20 % diurnal drift is layered over an NLANR-like
//! topology; `netsim::drift::DriftStream` turns it into an epoch-stamped
//! stream of changed measurements delivered through the discrete-event
//! queue. Three maintenance policies track the same 60 ordinary hosts over
//! 48 epochs:
//!
//! * **stale** — join once at epoch 0, never update (the paper's
//!   deployment assumption, lower bound on cost and accuracy);
//! * **streaming** — `StreamingServer::apply_epoch` per epoch: changed
//!   landmarks re-solved against the current model below the staleness
//!   threshold, warm 2-sweep ALS refresh above it, and re-joins of only
//!   the hosts whose own measurements moved;
//! * **fresh** — cold refit of the landmark model plus a re-join of every
//!   host, every epoch (upper bound on cost, the accuracy reference).
//!
//! Prints one row per epoch (median modified relative error per policy)
//! plus a cost/accuracy summary.

use std::collections::BTreeSet;

use ides::streaming::{
    EpochUpdate, MeasurementDelta, StalenessPolicy, StreamingServer, UpdateQueue,
};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_experiments::seed;
use ides_linalg::Matrix;
use ides_mf::metrics::{modified_relative_error, Cdf};
use ides_netsim::drift::{DriftModel, DriftStream};
use ides_netsim::event::EventQueue;

const LANDMARKS: usize = 20;
const HOSTS: usize = 80;
const DIM: usize = 8;
const AMPLITUDE: f64 = 0.2;

fn main() {
    let mut epochs = 48usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--epochs" => {
                epochs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--epochs N");
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let ds = ides_datasets::generators::nlanr_like(HOSTS, seed()).expect("dataset");
    let topo = &ds.topology;
    let drift = DriftModel::new(AMPLITUDE, 24.0, seed());
    // Emit a pair only when it moved ≥ 4 % since last reported — the
    // "meaningful change" filter a real measurement mesh would apply.
    let mut stream = DriftStream::new(topo, drift.clone(), ds.row_hosts.clone(), 1.0, 0.04);

    let landmarks: Vec<usize> = (0..LANDMARKS).collect();
    let ordinary: Vec<usize> = (LANDMARKS..HOSTS).collect();
    let full0 = stream.initial_matrix();
    let lm0 = DistanceMatrix::full(
        "lm0",
        Matrix::from_fn(LANDMARKS, LANDMARKS, |a, b| full0[(a, b)]),
    )
    .expect("landmark matrix");

    let policy = StalenessPolicy {
        deviation_threshold: 0.05,
        refresh_row_fraction: 0.25,
        sweep_budget: 2,
        ridge: 0.0,
    };
    let mut streaming = StreamingServer::new(&lm0, DIM, policy).expect("streaming server");

    // Current measured host-to-landmark rows (symmetric topology: one
    // matrix serves both directions).
    let mut meas = Matrix::from_fn(ordinary.len(), LANDMARKS, |h, l| {
        full0[(ordinary[h], landmarks[l])]
    });
    let mut coords_streaming = BatchHostVectors::new();
    streaming
        .landmark_model()
        .join_batch(&meas, &meas, &mut coords_streaming)
        .expect("initial join");
    let coords_stale = coords_streaming.clone();
    // Measurement rows as of each host's last join: the per-host staleness
    // signal (a host re-joins only when its own rows drift past the same
    // deviation threshold the landmark slab uses).
    let mut joined_meas = meas.clone();

    let mut events: EventQueue<ides_netsim::drift::EpochBatch> = EventQueue::new();
    stream.schedule_into(&mut events, epochs);
    let mut queue = UpdateQueue::new();

    println!(
        "# Streaming maintenance under ±{:.0}% drift (NLANR-like, {} landmarks, {} hosts, d={DIM})",
        AMPLITUDE * 100.0,
        LANDMARKS,
        ordinary.len()
    );
    println!(
        "# policy: refresh at deviation > {}, {} warm sweeps, rejoin affected hosts only",
        policy.deviation_threshold, policy.sweep_budget
    );
    println!("# epoch deviation tier rejoined stale_med streaming_med fresh_med");

    let score = |coords: &BatchHostVectors, epoch: f64| -> f64 {
        let mut errs = Vec::new();
        for (a, &ha) in ordinary.iter().enumerate() {
            for (b, &hb) in ordinary.iter().enumerate() {
                if a == b {
                    continue;
                }
                let actual = drift.rtt(topo, ds.row_hosts[ha], ds.row_hosts[hb], epoch);
                if actual > 0.0 {
                    errs.push(modified_relative_error(actual, coords.distance(a, b)));
                }
            }
        }
        Cdf::new(errs).median()
    };

    let (mut stale_sum, mut streaming_sum, mut fresh_sum) = (0.0, 0.0, 0.0);
    let mut rejoined_total = 0usize;
    let mut scored = 0usize;
    while let Some((now, batch)) = events.pop() {
        // Route the landmark-slab deltas through the epoch queue; host
        // measurement changes update the local measurement rows.
        let mut deltas = Vec::new();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for s in &batch.samples {
            let (lo, hi) = (s.i, s.j);
            if hi < LANDMARKS {
                deltas.push(MeasurementDelta {
                    from: lo,
                    to: hi,
                    rtt: s.rtt,
                });
                deltas.push(MeasurementDelta {
                    from: hi,
                    to: lo,
                    rtt: s.rtt,
                });
            } else if lo < LANDMARKS {
                let h = hi - LANDMARKS;
                meas[(h, lo)] = s.rtt;
                touched.insert(h);
            } // ordinary-ordinary pairs are not measured by the service
        }
        queue.push(EpochUpdate {
            epoch: batch.epoch,
            deltas,
        });

        let update = queue.pop_ready(now).expect("scheduled update is ready");
        let outcome = streaming.apply_epoch(&update).expect("apply epoch");
        // A refresh moves every landmark vector: all hosts must re-join.
        // Otherwise a touched host re-joins only once its own measurement
        // row has drifted past the deviation threshold since its last join.
        let rejoin: Vec<usize> = if outcome.refreshed {
            (0..ordinary.len()).collect()
        } else {
            touched
                .iter()
                .copied()
                .filter(|&h| {
                    let (mut dev, mut cnt) = (0.0, 0usize);
                    for l in 0..LANDMARKS {
                        let base = joined_meas[(h, l)];
                        if base > 0.0 {
                            dev += (meas[(h, l)] - base).abs() / base;
                            cnt += 1;
                        }
                    }
                    cnt > 0 && dev / cnt as f64 > policy.deviation_threshold
                })
                .collect()
        };
        streaming
            .rejoin_affected(&rejoin, &meas, &meas, &mut coords_streaming)
            .expect("rejoin");
        for &h in &rejoin {
            for l in 0..LANDMARKS {
                joined_meas[(h, l)] = meas[(h, l)];
            }
        }
        rejoined_total += rejoin.len();

        // Fresh control: cold fit of the drifted landmark slab + full join.
        let lm_now = DistanceMatrix::full(
            "lm",
            Matrix::from_fn(LANDMARKS, LANDMARKS, |a, b| {
                drift.rtt(topo, ds.row_hosts[a], ds.row_hosts[b], batch.epoch)
            }),
        )
        .expect("landmark matrix");
        let fresh = StreamingServer::new(&lm_now, DIM, policy).expect("fresh server");
        let mut coords_fresh = BatchHostVectors::new();
        fresh
            .landmark_model()
            .join_batch(&meas, &meas, &mut coords_fresh)
            .expect("fresh join");

        let s_stale = score(&coords_stale, batch.epoch);
        let s_stream = score(&coords_streaming, batch.epoch);
        let s_fresh = score(&coords_fresh, batch.epoch);
        stale_sum += s_stale;
        streaming_sum += s_stream;
        fresh_sum += s_fresh;
        scored += 1;
        println!(
            "{:5.1} {:.4} {} {:3} {:.4} {:.4} {:.4}",
            batch.epoch,
            outcome.deviation,
            if outcome.refreshed {
                "refresh"
            } else {
                "absorb "
            },
            rejoin.len(),
            s_stale,
            s_stream,
            s_fresh
        );
    }

    let n = scored.max(1) as f64;
    let (stale_mean, streaming_mean, fresh_mean) =
        (stale_sum / n, streaming_sum / n, fresh_sum / n);
    let gap = (streaming_mean - fresh_mean) / fresh_mean.max(1e-12);
    println!("#");
    println!(
        "# mean medians: stale {stale_mean:.4}  streaming {streaming_mean:.4}  fresh {fresh_mean:.4}"
    );
    println!(
        "# streaming vs fresh gap: {:.1}%  (refreshes {}, absorbed rows {}, host re-joins {} of {} possible)",
        gap * 100.0,
        streaming.refreshes(),
        streaming.absorbed(),
        rejoined_total,
        scored * ordinary.len()
    );
}
