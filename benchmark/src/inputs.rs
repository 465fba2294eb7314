//! Set-up: everything a workload feeds the product, generated before any
//! product layer is timed. Only generators are called here
//! (`p2psim_like`, `TransitStubTopology::generate`, `DriftModel`,
//! `DriftStream`, `measurement_row`, `DistanceMatrix::full`); the time
//! this takes is the `setup_s` metric.
//!
//! Like the paper's data sets, the substrate — the topology and the
//! matrix the offline phase fits — is one fixed artifact, generated from
//! [`DATASET_SEED`]. `--seed` draws everything sampled *from* it: which
//! hosts are the deployment's landmarks, the drift process, the pair
//! lists, the churn rows, the evaluation's landmark sets. A factorization
//! whose iteration count depends on the spectrum therefore does the same
//! work under every seed, and a timing that moves with the seed is noise.

use std::time::Instant;

use ides::streaming::{EpochUpdate, MeasurementDelta};
use ides_datasets::{generators, DistanceMatrix};
use ides_linalg::Matrix;
use ides_netsim::drift::{DriftModel, DriftStream};
use ides_netsim::workload::measurement_row;
use ides_netsim::{TransitStubParams, TransitStubTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rng::SplitMix64;
use crate::spec::{Spec, Substrate};

/// Seed of the substrate (the date of the paper's IMC'04 session).
pub const DATASET_SEED: u64 = 20041025;

/// Drift of the serving substrate: ±20 % per pair over a 24-epoch cycle,
/// one epoch per stream step, pairs re-reported when they move by 1 %.
const DRIFT_AMPLITUDE: f64 = 0.2;
const DRIFT_PERIOD: f64 = 24.0;
const DRIFT_STEP: f64 = 1.0;
const DRIFT_THRESHOLD: f64 = 0.01;

pub struct Inputs {
    pub topo: TransitStubTopology,
    pub drift: DriftModel,
    /// Topology ids of the deployment's resident hosts (its landmarks'
    /// ids are only needed while generating).
    pub host_ids: Vec<usize>,
    /// Landmark-to-landmark RTTs at epoch zero.
    pub lm_matrix: DistanceMatrix,
    /// `hosts x landmarks` measurement rows at epoch zero. RTT is
    /// symmetric on this substrate, so a host's out- and in-rows coincide.
    pub rows: Matrix,
    /// The drift schedule, one update per epoch.
    pub updates: Vec<EpochUpdate>,
    /// The matrix the offline phase fits and evaluates.
    pub offline: DistanceMatrix,
    /// Host-index pairs whose served estimates are scored for accuracy.
    pub probe_pairs: Vec<(u32, u32)>,
}

fn full(name: &str, values: Matrix) -> DistanceMatrix {
    DistanceMatrix::full(name, values).expect("generated matrix is square and finite")
}

/// Both directions of every drifted landmark pair (drift is symmetric).
fn update_from(batch: &ides_netsim::drift::EpochBatch) -> EpochUpdate {
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

/// Generates one workload's inputs. Deterministic per `(spec, seed)`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let root = SplitMix64::new(seed);

    // Substrate (fixed): the topology, the matrix the offline phase fits,
    // and the topology ids the deployment may draw from.
    let (topo, offline, pool) = match spec.substrate {
        Substrate::P2psim { target, keep } => {
            let ds = generators::p2psim_like(target, DATASET_SEED).expect("p2psim_like generates");
            let keep = keep.min(ds.matrix.rows());
            let kept: Vec<usize> = (0..keep).collect();
            let offline = ds.matrix.submatrix(&kept, &kept);
            (ds.topology, offline, ds.row_hosts[..keep].to_vec())
        }
        Substrate::TransitStub => {
            let n = spec.landmarks + spec.hosts;
            let topo = TransitStubTopology::generate(
                &TransitStubParams::internet_scale(n),
                &mut StdRng::seed_from_u64(DATASET_SEED),
            );
            // Offline matrix: true RTTs among a fixed host sample.
            let sample =
                SplitMix64::new(DATASET_SEED).sample_distinct(n, spec.offline_hosts.min(n));
            let offline = full(
                "sample",
                Matrix::from_fn(sample.len(), sample.len(), |a, b| {
                    topo.host_rtt(sample[a], sample[b])
                }),
            );
            (topo, offline, (0..n).collect())
        }
    };

    // Deployment (seed-drawn): which of the pool are landmarks; every
    // other host is a resident, in pool order.
    let mut is_landmark = vec![false; pool.len()];
    let lm_ids: Vec<usize> = root
        .fork(1)
        .sample_distinct(pool.len(), spec.landmarks)
        .into_iter()
        .map(|i| {
            is_landmark[i] = true;
            pool[i]
        })
        .collect();
    let host_ids: Vec<usize> = pool
        .iter()
        .zip(&is_landmark)
        .filter(|(_, &lm)| !lm)
        .map(|(&h, _)| h)
        .take(spec.hosts)
        .collect();

    let drift = DriftModel::new(DRIFT_AMPLITUDE, DRIFT_PERIOD, seed);
    let k = lm_ids.len();
    let lm_matrix = full(
        "landmarks",
        Matrix::from_fn(k, k, |a, b| drift.rtt(&topo, lm_ids[a], lm_ids[b], 0.0)),
    );

    let mut rows = Matrix::zeros(0, k);
    for &h in &host_ids {
        rows.push_row(&measurement_row(&topo, &drift, h, &lm_ids, 0.0));
    }

    let updates: Vec<EpochUpdate> =
        DriftStream::new(&topo, drift.clone(), lm_ids, DRIFT_STEP, DRIFT_THRESHOLD)
            .take(spec.updates_needed())
            .map(|b| update_from(&b))
            .collect();

    let mut rng = root.fork(3);
    let n = host_ids.len();
    let probe_pairs = (0..spec.probe_pairs)
        .map(|_| {
            let a = rng.below(n);
            // Distinct endpoints: a host's distance to itself is not a
            // prediction.
            let b = (a + 1 + rng.below(n - 1)) % n;
            (a as u32, b as u32)
        })
        .collect();

    Inputs {
        topo,
        drift,
        host_ids,
        lm_matrix,
        rows,
        updates,
        offline,
        probe_pairs,
    }
}

/// Runs [`generate`] `reps` times, returning the last inputs and the
/// median set-up time (the contract wants set-up measured several times
/// in a run).
pub fn generate_timed(spec: &Spec, seed: u64, reps: usize) -> (Inputs, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(generate(spec, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        crate::stats::median(&times),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let spec = Spec::of("serve_hot", 0.02, true).unwrap();
        let (a, b, c) = (generate(&spec, 5), generate(&spec, 5), generate(&spec, 6));
        assert_eq!(a.rows.as_slice(), b.rows.as_slice());
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.probe_pairs, b.probe_pairs);
        assert_eq!(a.offline.values().as_slice(), b.offline.values().as_slice());
        // Another seed: another deployment on the same substrate.
        assert_ne!(a.rows.as_slice(), c.rows.as_slice());
        assert_ne!(a.probe_pairs, c.probe_pairs);
        assert_eq!(a.offline.values().as_slice(), c.offline.values().as_slice());
        assert_eq!(a.rows.shape(), (spec.hosts, spec.landmarks));
        assert_eq!(a.updates.len(), spec.updates_needed());
        assert!(a
            .probe_pairs
            .iter()
            .all(|&(x, y)| x != y && (y as usize) < spec.hosts));
    }

    #[test]
    fn p2psim_substrate_has_a_fixed_shape() {
        let spec = Spec::of("paper_offline", 0.02, true).unwrap();
        let a = generate(&spec, 11);
        assert_eq!(a.offline.rows(), 96);
        assert_eq!(
            (a.lm_matrix.rows(), a.host_ids.len()),
            (spec.landmarks, spec.hosts)
        );
        assert_eq!(a.rows.shape(), (spec.hosts, spec.landmarks));
        let mut ids = a.host_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spec.hosts);
    }
}
