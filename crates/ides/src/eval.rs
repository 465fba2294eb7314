//! Prediction-accuracy evaluation harness (§6 of the paper).
//!
//! Drives the three systems the paper compares — IDES (SVD or NMF), ICS
//! (Lipschitz+PCA) and GNP (Simplex Downhill) — through the same protocol:
//! build a model from the landmark-to-landmark matrix, join every ordinary
//! host from its measured distances to/from the landmarks, then score
//! predictions on ordinary-to-ordinary pairs **that were never measured by
//! the model** using the modified relative error (Eq. 10).
//!
//! # Batched, sharded pipeline
//!
//! Every evaluator runs the same three-stage pipeline:
//!
//! 1. **Gather** — the ordinary hosts with complete landmark measurements
//!    are collected and their measured rows packed into `hosts x k`
//!    matrices;
//! 2. **Batch join/embed** — the whole batch is joined in one multi-RHS
//!    solve ([`crate::projection::join_hosts_into`] for IDES) or embedded
//!    through the estimator-level [`BatchEmbed`] entry point (ICS's PCA
//!    GEMM, GNP's per-host simplex fits);
//! 3. **Score** — the `O(n²)` ordinary-pair sweep reads coordinate rows
//!    straight out of the batch matrices, with no per-host vector clones.
//!
//! With the `parallel` cargo feature, stages 2 and 3 are **sharded over
//! std scoped threads** (one shard per core; `IDES_LINALG_THREADS`
//! overrides the count). Sharding is deterministic and bit-identical to
//! the single-threaded sweep: every host's join/embedding depends only on
//! its own measurement row plus the shared landmark model, pair errors are
//! pure per-pair functions, and shard outputs are merged in fixed host
//! order — so the `errors` vector is byte-for-byte the same at any thread
//! count (asserted by `tests/parallel_eval.rs`).

use std::time::Instant;

use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::gnp::{GnpConfig, GnpModel};
use ides_mf::lipschitz::LipschitzPca;
use ides_mf::metrics::{modified_relative_error, Cdf};
use ides_mf::BatchEmbed;

use crate::error::{IdesError, Result};
use crate::projection::{BatchHostVectors, HostVectors, JoinWorkspace};
use crate::system::{IdesConfig, InformationServer};

/// Result of one prediction experiment.
#[derive(Debug, Clone)]
pub struct PredictionResult {
    /// Modified relative errors over the evaluated pairs.
    pub errors: Vec<f64>,
    /// Wall-clock seconds to build the model (landmark fit + all host joins).
    pub build_seconds: f64,
    /// Number of ordinary hosts joined.
    pub hosts_joined: usize,
    /// Number of evaluated (predicted) pairs.
    pub pairs_evaluated: usize,
}

impl PredictionResult {
    /// CDF over the prediction errors (copies the error slice; use
    /// [`PredictionResult::into_cdf`] when the result is no longer needed).
    pub fn cdf(&self) -> Cdf {
        Cdf::from_slice(&self.errors)
    }

    /// Consumes the result into a CDF over its errors without copying the
    /// error vector.
    pub fn into_cdf(self) -> Cdf {
        Cdf::new(self.errors)
    }
}

/// Number of shards the evaluation sweeps fan out to. Always 1 without the
/// `parallel` feature; with it, one per available core unless
/// `IDES_LINALG_THREADS` overrides (the same knob the GEMM kernels honor).
pub(crate) fn eval_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        std::env::var("IDES_LINALG_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|t| t.get())
                    .unwrap_or(1)
            })
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Splits `n` items into at most `shards` contiguous ranges whose sizes
/// differ by at most one.
pub(crate) fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Runs `f` over contiguous shards of `items` — on scoped threads when the
/// `parallel` feature enables more than one shard, inline otherwise — and
/// returns the per-shard outputs **in shard order**. `f` receives each
/// shard slice plus its offset into `items`; because shards are contiguous
/// and merged in order, any per-item-independent `f` yields output
/// identical to a single-shard run.
pub(crate) fn map_shards<T, R, F>(items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&[T], usize) -> Result<R> + Sync,
{
    let threads = eval_threads();
    if threads <= 1 || items.len() <= 1 {
        return Ok(vec![f(items, 0)?]);
    }
    let ranges = shard_ranges(items.len(), threads);
    let mut slots: Vec<Option<Result<R>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for (slot, &(lo, hi)) in slots.iter_mut().zip(&ranges) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(&items[lo..hi], lo));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every shard thread ran"))
        .collect()
}

/// True when `host` measured distances to **and** from every landmark (the
/// paper's completeness filter for ordinary hosts).
fn measurements_complete(data: &DistanceMatrix, host: usize, landmarks: &[usize]) -> bool {
    landmarks
        .iter()
        .all(|&l| data.get(host, l).is_some() && data.get(l, host).is_some())
}

/// Packs the measured landmark rows of `hosts` (all previously checked
/// complete) into `hosts x k` out/in matrices, reusing the buffers'
/// capacity.
fn gather_measurements(
    data: &DistanceMatrix,
    hosts: &[usize],
    landmarks: &[usize],
    d_out: &mut Matrix,
    d_in: &mut Matrix,
) {
    d_out.reset_shape(hosts.len(), landmarks.len());
    d_in.reset_shape(hosts.len(), landmarks.len());
    for (r, &h) in hosts.iter().enumerate() {
        for (c, &l) in landmarks.iter().enumerate() {
            d_out[(r, c)] = data.get(h, l).expect("host filtered complete");
            d_in[(r, c)] = data.get(l, h).expect("host filtered complete");
        }
    }
}

/// Ordinary hosts eligible for joining: those with complete measurements.
fn complete_hosts(data: &DistanceMatrix, landmarks: &[usize], ordinary: &[usize]) -> Vec<usize> {
    ordinary
        .iter()
        .copied()
        .filter(|&h| measurements_complete(data, h, landmarks))
        .collect()
}

/// Scores every ordered ordinary pair `(ids[i], ids[j])`, `i != j`, whose
/// true distance is observed and positive, in row-major `(i, j)` order.
/// `dist(i, j)` estimates the distance between batch members `i` and `j`.
///
/// Sharded over the first index under the `parallel` feature and merged in
/// shard order, so the returned error vector is byte-identical to the
/// sequential sweep.
fn score_pairs<F>(data: &DistanceMatrix, ids: &[usize], dist: F) -> Result<Vec<f64>>
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    let shards = map_shards(ids, |shard, offset| {
        let mut errors = Vec::new();
        for (r, &hi) in shard.iter().enumerate() {
            let i = offset + r;
            for (j, &hj) in ids.iter().enumerate() {
                if i == j {
                    continue;
                }
                if let Some(actual) = data.get(hi, hj) {
                    if actual > 0.0 {
                        errors.push(modified_relative_error(actual, dist(i, j)));
                    }
                }
            }
        }
        Ok(errors)
    })?;
    Ok(shards.concat())
}

/// Merges per-shard coordinate matrices (same column count) in shard order.
fn vcat_shards(shards: Vec<Matrix>) -> Result<Matrix> {
    let mut merged: Option<Matrix> = None;
    for m in shards {
        merged = Some(match merged {
            None => m,
            Some(acc) => acc.vcat(&m)?,
        });
    }
    Ok(merged.unwrap_or_else(|| Matrix::zeros(0, 0)))
}

/// Runs the IDES prediction experiment on a square data set.
///
/// `landmarks` and `ordinary` index hosts of `data`; hosts whose landmark
/// measurements are incomplete are skipped (consistent with the paper's
/// filtering). Hosts are joined in shard-sized batches through the
/// multi-RHS join path and scored straight from the batch matrices; see
/// the module docs for the sharding/determinism contract.
pub fn evaluate_ides(
    data: &DistanceMatrix,
    landmarks: &[usize],
    ordinary: &[usize],
    config: IdesConfig,
) -> Result<PredictionResult> {
    let start = Instant::now();
    let lm = data.submatrix(landmarks, landmarks);
    let server = InformationServer::build(&lm, config)?;

    let ids = complete_hosts(data, landmarks, ordinary);
    let shards = map_shards(&ids, |hosts, _| {
        let mut d_out = Matrix::zeros(0, 0);
        let mut d_in = Matrix::zeros(0, 0);
        gather_measurements(data, hosts, landmarks, &mut d_out, &mut d_in);
        let mut ws = JoinWorkspace::new();
        let mut batch = BatchHostVectors::new();
        server.join_batch_into(&mut ws, &d_out, &d_in, &mut batch)?;
        Ok(batch)
    })?;
    let mut shards = shards.into_iter();
    let mut joined = shards.next().unwrap_or_default();
    for shard in shards {
        joined.extend_from(&shard)?;
    }
    let build_seconds = start.elapsed().as_secs_f64();

    let errors = score_pairs(data, &ids, |i, j| joined.distance(i, j))?;
    Ok(PredictionResult {
        pairs_evaluated: errors.len(),
        hosts_joined: ids.len(),
        errors,
        build_seconds,
    })
}

/// Runs the ICS (Lipschitz+PCA) prediction experiment: the landmark matrix
/// is embedded by PCA; ordinary hosts are embedded from their Lipschitz
/// rows (distances to landmarks) in per-shard batches — one GEMM per shard
/// through [`BatchEmbed`].
pub fn evaluate_ics(
    data: &DistanceMatrix,
    landmarks: &[usize],
    ordinary: &[usize],
    dim: usize,
) -> Result<PredictionResult> {
    let start = Instant::now();
    let lm = data.submatrix(landmarks, landmarks);
    let model = LipschitzPca::fit(&lm, dim)?;

    let ids = complete_hosts(data, landmarks, ordinary);
    let shards = map_shards(&ids, |hosts, _| {
        let mut d_out = Matrix::zeros(0, 0);
        let mut d_in = Matrix::zeros(0, 0);
        gather_measurements(data, hosts, landmarks, &mut d_out, &mut d_in);
        let seeds: Vec<u64> = hosts.iter().map(|&h| h as u64).collect();
        Ok(BatchEmbed::embed_batch(&model, &d_out, &seeds)?)
    })?;
    let coords = vcat_shards(shards)?;
    let build_seconds = start.elapsed().as_secs_f64();

    let errors = score_pairs(data, &ids, |i, j| {
        LipschitzPca::distance(coords.row(i), coords.row(j))
    })?;
    Ok(PredictionResult {
        pairs_evaluated: errors.len(),
        hosts_joined: ids.len(),
        errors,
        build_seconds,
    })
}

/// Runs the GNP prediction experiment (Simplex Downhill embedding). Host
/// fits are independent simplex runs seeded by host id, dispatched through
/// the same [`BatchEmbed`] shard driver as ICS.
pub fn evaluate_gnp(
    data: &DistanceMatrix,
    landmarks: &[usize],
    ordinary: &[usize],
    config: GnpConfig,
) -> Result<PredictionResult> {
    let start = Instant::now();
    let lm = data.submatrix(landmarks, landmarks);
    let model =
        GnpModel::fit_landmarks(&lm, config).map_err(|e| IdesError::InvalidInput(e.to_string()))?;

    let ids = complete_hosts(data, landmarks, ordinary);
    let shards = map_shards(&ids, |hosts, _| {
        let mut d_out = Matrix::zeros(0, 0);
        let mut d_in = Matrix::zeros(0, 0);
        gather_measurements(data, hosts, landmarks, &mut d_out, &mut d_in);
        let seeds: Vec<u64> = hosts.iter().map(|&h| h as u64).collect();
        model
            .fit_hosts(&d_out, config, &seeds)
            .map_err(|e| IdesError::InvalidInput(e.to_string()))
    })?;
    let coords = vcat_shards(shards)?;
    let build_seconds = start.elapsed().as_secs_f64();

    let errors = score_pairs(data, &ids, |i, j| {
        GnpModel::distance(coords.row(i), coords.row(j))
    })?;
    Ok(PredictionResult {
        pairs_evaluated: errors.len(),
        hosts_joined: ids.len(),
        errors,
        build_seconds,
    })
}

/// §6.2 robustness experiment: each ordinary host independently fails to
/// observe a random `unobserved_fraction` of the landmarks and joins
/// through the remainder.
///
/// Hosts are **grouped by identical observed-landmark subset** and each
/// distinct subset's reference subsystem is gathered and factored once
/// ([`crate::projection::join_hosts_subset_into`] through the shared
/// [`JoinWorkspace`]), extending the batched-join amortization to the
/// robustness path: at 0 % failures every host shares the full landmark
/// set (one factorization total), and at higher failure rates repeated
/// subsets still collapse to one factorization each. Per-host results are
/// **bit-identical** to the former one-join-per-host sweep, because the
/// batched solvers' per-row arithmetic is independent of the batch's row
/// count (asserted in `tests/grouped_failures.rs`).
///
/// Returns the modified relative errors over ordinary-pair predictions.
pub fn evaluate_ides_with_failures(
    data: &DistanceMatrix,
    landmarks: &[usize],
    ordinary: &[usize],
    config: IdesConfig,
    unobserved_fraction: f64,
    seed: u64,
) -> Result<PredictionResult> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    if !(0.0..1.0).contains(&unobserved_fraction) {
        return Err(IdesError::InvalidInput(
            "unobserved fraction must be in [0, 1)".into(),
        ));
    }
    let start = Instant::now();
    let lm = data.submatrix(landmarks, landmarks);
    let server = InformationServer::build(&lm, config)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let m = landmarks.len();
    let keep = m - ((m as f64 * unobserved_fraction).round() as usize).min(m);

    // Pass 1: draw every host's observed subset from the sequential RNG
    // stream (host order fixes the stream, so the subsets are identical to
    // the former one-host-at-a-time sweep), then group hosts by subset.
    let mut idx: Vec<usize> = Vec::with_capacity(m);
    let mut hosts: Vec<usize> = Vec::new();
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    for &h in ordinary {
        if !measurements_complete(data, h, landmarks) {
            continue;
        }
        idx.clear();
        idx.extend(0..m);
        idx.shuffle(&mut rng);
        idx.truncate(keep.max(1));
        idx.sort_unstable();
        hosts.push(h);
        subsets.push(idx.clone());
    }
    let mut groups: BTreeMap<&[usize], Vec<usize>> = BTreeMap::new();
    for (pos, subset) in subsets.iter().enumerate() {
        groups.entry(subset.as_slice()).or_default().push(pos);
    }

    // Pass 2: one gathered factorization per distinct subset serves all of
    // its hosts; a group whose plain solve is singular retries with a tiny
    // ridge (the paper still attempts the join), and only if that fails
    // too does the group fall back to individual joins so a pathological
    // host cannot sink its groupmates.
    let mut ws = JoinWorkspace::new();
    let mut d_out = Matrix::zeros(0, 0);
    let mut d_in = Matrix::zeros(0, 0);
    let mut batch = BatchHostVectors::new();
    let mut results: Vec<Option<HostVectors>> = vec![None; hosts.len()];
    let ridge_cfg = {
        let mut cfg = server.join_options();
        cfg.ridge = 1e-6;
        cfg
    };
    for (subset, members) in &groups {
        d_out.reset_shape(members.len(), subset.len());
        d_in.reset_shape(members.len(), subset.len());
        for (r, &pos) in members.iter().enumerate() {
            let h = hosts[pos];
            for (c, &i) in subset.iter().enumerate() {
                d_out[(r, c)] = data.get(h, landmarks[i]).expect("complete");
                d_in[(r, c)] = data.get(landmarks[i], h).expect("complete");
            }
        }
        let joined = match crate::projection::join_hosts_subset_into(
            &mut ws,
            server.model().x(),
            server.model().y(),
            subset,
            &d_out,
            &d_in,
            server.join_options(),
            &mut batch,
        ) {
            // Too few observations fails every group member identically, so
            // the ridge retry can stay batched (bit-identical to per-host
            // ridge joins). Any other failure is potentially per-host.
            Err(IdesError::TooFewObservations { .. }) => crate::projection::join_hosts_subset_into(
                &mut ws,
                server.model().x(),
                server.model().y(),
                subset,
                &d_out,
                &d_in,
                ridge_cfg,
                &mut batch,
            ),
            other => other,
        };
        match joined {
            Ok(()) => {
                for (r, &pos) in members.iter().enumerate() {
                    results[pos] = Some(batch.host(r));
                }
            }
            Err(_) => {
                // Per-host salvage, mirroring the pre-grouping sweep.
                for (r, &pos) in members.iter().enumerate() {
                    let result = server
                        .join_partial_with(&mut ws, subset, d_out.row(r), d_in.row(r))
                        .or_else(|_| {
                            crate::projection::join_host_subset_with(
                                &mut ws,
                                server.model().x(),
                                server.model().y(),
                                subset,
                                d_out.row(r),
                                d_in.row(r),
                                ridge_cfg,
                            )
                        });
                    if let Ok(v) = result {
                        results[pos] = Some(v);
                    }
                }
            }
        }
    }
    let mut ids: Vec<usize> = Vec::new();
    let mut joined: Vec<HostVectors> = Vec::new();
    for (pos, result) in results.into_iter().enumerate() {
        if let Some(v) = result {
            ids.push(hosts[pos]);
            joined.push(v);
        }
    }
    let build_seconds = start.elapsed().as_secs_f64();

    let errors = score_pairs(data, &ids, |i, j| joined[i].distance_to_host(&joined[j]))?;
    Ok(PredictionResult {
        pairs_evaluated: errors.len(),
        hosts_joined: ids.len(),
        errors,
        build_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::split_landmarks;
    use ides_datasets::generators::{gnp_like, nlanr_like};

    #[test]
    fn ides_beats_ics_on_nlanr_like() {
        // Fig. 6(b): IDES more accurate than ICS on the NLANR-style set.
        let ds = nlanr_like(60, 21).unwrap();
        let (landmarks, ordinary) = split_landmarks(60, 20, 5);
        let ides = evaluate_ides(&ds.matrix, &landmarks, &ordinary, IdesConfig::new(8)).unwrap();
        let ics = evaluate_ics(&ds.matrix, &landmarks, &ordinary, 8).unwrap();
        let ides_med = ides.cdf().median();
        let ics_med = ics.cdf().median();
        assert!(
            ides_med < ics_med,
            "IDES median {ides_med} should beat ICS median {ics_med}"
        );
        assert_eq!(ides.hosts_joined, 40);
        assert_eq!(ides.pairs_evaluated, 40 * 39);
    }

    #[test]
    fn nmf_variant_runs_and_is_accurate() {
        let ds = nlanr_like(50, 22).unwrap();
        let (landmarks, ordinary) = split_landmarks(50, 20, 6);
        let r = evaluate_ides(&ds.matrix, &landmarks, &ordinary, IdesConfig::nmf(8)).unwrap();
        assert!(r.cdf().median() < 0.5, "NMF median {}", r.cdf().median());
    }

    #[test]
    fn failure_experiment_degrades_gracefully() {
        // Fig. 7 shape: more unobserved landmarks => error does not improve,
        // and with 0% failures it matches the basic architecture.
        let ds = nlanr_like(60, 23).unwrap();
        let (landmarks, ordinary) = split_landmarks(60, 20, 8);
        let base = evaluate_ides(&ds.matrix, &landmarks, &ordinary, IdesConfig::new(8)).unwrap();
        let f0 = evaluate_ides_with_failures(
            &ds.matrix,
            &landmarks,
            &ordinary,
            IdesConfig::new(8),
            0.0,
            1,
        )
        .unwrap();
        assert!((base.cdf().median() - f0.cdf().median()).abs() < 1e-9);
        let f6 = evaluate_ides_with_failures(
            &ds.matrix,
            &landmarks,
            &ordinary,
            IdesConfig::new(8),
            0.6,
            1,
        )
        .unwrap();
        assert!(
            f6.cdf().median() >= f0.cdf().median() * 0.8,
            "60% failures median {} vs baseline {}",
            f6.cdf().median(),
            f0.cdf().median()
        );
    }

    #[test]
    fn gnp_evaluation_runs() {
        let ds = gnp_like(19, 24).unwrap();
        let (landmarks, ordinary) = split_landmarks(19, 15, 9);
        let cfg = GnpConfig {
            landmark_evals: 20_000,
            host_evals: 2_000,
            ..GnpConfig::new(6)
        };
        let r = evaluate_gnp(&ds.matrix, &landmarks, &ordinary, cfg).unwrap();
        assert_eq!(r.hosts_joined, 4);
        assert_eq!(r.pairs_evaluated, 12);
        assert!(r.cdf().median().is_finite());
    }

    #[test]
    fn ides_is_much_faster_than_gnp() {
        // Table 1's headline: IDES builds in well under the GNP time.
        let ds = gnp_like(19, 25).unwrap();
        let (landmarks, ordinary) = split_landmarks(19, 15, 11);
        let ides = evaluate_ides(&ds.matrix, &landmarks, &ordinary, IdesConfig::new(8)).unwrap();
        let gnp = evaluate_gnp(
            &ds.matrix,
            &landmarks,
            &ordinary,
            GnpConfig {
                landmark_evals: 40_000,
                host_evals: 2_000,
                ..GnpConfig::new(8)
            },
        )
        .unwrap();
        assert!(
            ides.build_seconds * 5.0 < gnp.build_seconds,
            "IDES {}s vs GNP {}s",
            ides.build_seconds,
            gnp.build_seconds
        );
    }

    #[test]
    fn invalid_fraction_rejected() {
        let ds = gnp_like(10, 26).unwrap();
        let (landmarks, ordinary) = split_landmarks(10, 8, 12);
        assert!(evaluate_ides_with_failures(
            &ds.matrix,
            &landmarks,
            &ordinary,
            IdesConfig::new(4),
            1.0,
            0
        )
        .is_err());
    }
}
