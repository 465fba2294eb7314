//! Network drift: slow evolution of path delays over time.
//!
//! IDES coordinates are computed once and reused; on the real Internet,
//! routes and congestion change, so cached vectors go stale. This module
//! models that with a smooth multiplicative drift per stub pair: the
//! drifted RTT at epoch `t` is `base_rtt × (1 + a·sin(ω t + φ))` with
//! per-pair amplitude, frequency and phase derived deterministically from
//! the pair identity. Smooth periodic drift matches the diurnal patterns
//! of real RTT series better than white noise and keeps every run
//! reproducible.

use crate::topology::TransitStubTopology;

/// A drift process layered over a topology.
#[derive(Debug, Clone)]
pub struct DriftModel {
    /// Maximum relative deviation from the base delay (e.g. 0.2 = ±20 %).
    pub amplitude: f64,
    /// Number of epochs in one full drift cycle.
    pub period_epochs: f64,
    /// Salt mixed into the per-pair phase/frequency hash.
    pub salt: u64,
}

impl DriftModel {
    /// Creates a drift model; `amplitude` must be in `[0, 1)` so delays
    /// stay positive.
    pub fn new(amplitude: f64, period_epochs: f64, salt: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(period_epochs > 0.0, "period must be positive");
        DriftModel {
            amplitude,
            period_epochs,
            salt,
        }
    }

    /// The multiplicative drift factor for host pair `(i, j)` at `epoch`.
    ///
    /// Symmetric in `(i, j)` so RTT stays symmetric under drift.
    pub fn factor(&self, i: usize, j: usize, epoch: f64) -> f64 {
        if self.amplitude == 0.0 || i == j {
            return 1.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let h = hash3(self.salt, a as u64, b as u64);
        // Per-pair phase in [0, 2π) and frequency in [0.5, 1.5] cycles.
        let phase = (h & 0xFFFF) as f64 / 65536.0 * std::f64::consts::TAU;
        let freq = 0.5 + ((h >> 16) & 0xFFFF) as f64 / 65536.0;
        let omega = std::f64::consts::TAU * freq / self.period_epochs;
        1.0 + self.amplitude * (omega * epoch + phase).sin()
    }

    /// Drifted RTT between hosts `i` and `j` at `epoch`.
    pub fn rtt(&self, topo: &TransitStubTopology, i: usize, j: usize, epoch: f64) -> f64 {
        topo.host_rtt(i, j) * self.factor(i, j, epoch)
    }

    /// Mean absolute relative deviation of the drifted matrix from the
    /// base matrix at `epoch`, over the given hosts.
    pub fn deviation(&self, topo: &TransitStubTopology, hosts: &[usize], epoch: f64) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (ai, &i) in hosts.iter().enumerate() {
            for &j in hosts.iter().skip(ai + 1) {
                let base = topo.host_rtt(i, j);
                if base > 0.0 {
                    total += (self.rtt(topo, i, j, epoch) - base).abs() / base;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// One drifted measurement emitted by a [`DriftStream`]: the RTT between
/// tracked hosts at positions `i` and `j` (indices into the stream's host
/// list, **not** raw topology host ids) is now `rtt`. Emitted once per
/// unordered pair — drift is symmetric, so consumers apply it in both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSample {
    /// Position of the first host in the stream's tracked list.
    pub i: usize,
    /// Position of the second host (`i < j`).
    pub j: usize,
    /// The newly measured RTT.
    pub rtt: f64,
}

/// All measurements that changed at one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochBatch {
    /// The epoch the measurements were taken at.
    pub epoch: f64,
    /// Pairs whose RTT moved more than the stream's threshold since they
    /// were last emitted.
    pub samples: Vec<DriftSample>,
}

/// An epoch-stamped stream of drifted measurements over a tracked host
/// set — the producer side of the streaming-update subsystem.
///
/// Each call to [`DriftStream::next`] advances time by one epoch step and
/// emits the pairs whose drifted RTT moved by more than `threshold`
/// (relative) since that pair was last emitted, which models a measurement
/// infrastructure that only reports meaningful changes. Deterministic: the
/// same topology/model/hosts yield the same stream. The stream is
/// infinite; bound it with `take` or schedule a fixed horizon into a
/// discrete-event queue with [`DriftStream::schedule_into`].
#[derive(Debug)]
pub struct DriftStream<'a> {
    topo: &'a TransitStubTopology,
    model: DriftModel,
    hosts: Vec<usize>,
    epoch_step: f64,
    threshold: f64,
    /// Last *emitted* RTT per tracked pair (row-major over positions).
    last: Vec<f64>,
    epoch: f64,
}

impl<'a> DriftStream<'a> {
    /// Creates a stream over `hosts` (topology host ids) starting at epoch
    /// zero, advancing `epoch_step` per batch and emitting pairs whose RTT
    /// moved more than `threshold` (relative) since last emitted.
    pub fn new(
        topo: &'a TransitStubTopology,
        model: DriftModel,
        hosts: Vec<usize>,
        epoch_step: f64,
        threshold: f64,
    ) -> Self {
        assert!(epoch_step > 0.0, "epoch step must be positive");
        assert!(threshold >= 0.0, "threshold must be nonnegative");
        let n = hosts.len();
        let mut last = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                last[a * n + b] = model.rtt(topo, hosts[a], hosts[b], 0.0);
            }
        }
        DriftStream {
            topo,
            model,
            hosts,
            epoch_step,
            threshold,
            last,
            epoch: 0.0,
        }
    }

    /// The tracked host ids (positions in emitted samples index this).
    pub fn hosts(&self) -> &[usize] {
        &self.hosts
    }

    /// The full drifted RTT matrix over the tracked hosts at epoch zero —
    /// the matrix a consumer fits its initial model from.
    pub fn initial_matrix(&self) -> ides_linalg::Matrix {
        let n = self.hosts.len();
        ides_linalg::Matrix::from_fn(n, n, |a, b| self.last[a * n + b])
    }

    /// Schedules the next `epochs` batches into a discrete-event queue at
    /// their epoch timestamps (one simulated "time unit" per epoch), so a
    /// simulation can interleave measurement arrivals with other events.
    /// Call on a queue whose clock has not advanced past the stream.
    pub fn schedule_into(&mut self, q: &mut crate::event::EventQueue<EpochBatch>, epochs: usize) {
        for _ in 0..epochs {
            let batch = self.next().expect("drift stream is infinite");
            q.schedule(batch.epoch - q.now(), batch);
        }
    }
}

impl Iterator for DriftStream<'_> {
    type Item = EpochBatch;

    fn next(&mut self) -> Option<EpochBatch> {
        self.epoch += self.epoch_step;
        let n = self.hosts.len();
        let mut samples = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let rtt = self
                    .model
                    .rtt(self.topo, self.hosts[a], self.hosts[b], self.epoch);
                let prev = self.last[a * n + b];
                let moved = if prev > 0.0 {
                    (rtt - prev).abs() / prev
                } else {
                    rtt.abs()
                };
                if moved > self.threshold {
                    self.last[a * n + b] = rtt;
                    self.last[b * n + a] = rtt;
                    samples.push(DriftSample { i: a, j: b, rtt });
                }
            }
        }
        Some(EpochBatch {
            epoch: self.epoch,
            samples,
        })
    }
}

fn hash3(salt: u64, a: u64, b: u64) -> u64 {
    let mut z =
        salt ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TransitStubParams;
    use rand::SeedableRng;

    fn topo() -> TransitStubTopology {
        let params = TransitStubParams {
            hosts: 20,
            stubs: 5,
            ..TransitStubParams::default()
        };
        TransitStubTopology::generate(&params, &mut rand::rngs::StdRng::seed_from_u64(8))
    }

    #[test]
    fn epoch_zero_is_not_special_but_bounded() {
        let t = topo();
        let drift = DriftModel::new(0.2, 24.0, 1);
        for epoch in [0.0, 3.5, 12.0, 100.0] {
            for i in 0..20 {
                for j in 0..20 {
                    let f = drift.factor(i, j, epoch);
                    assert!((0.8..=1.2).contains(&f), "factor {f} out of band");
                    let r = drift.rtt(&t, i, j, epoch);
                    assert!(r >= 0.0 && r.is_finite());
                }
            }
        }
    }

    #[test]
    fn drift_is_symmetric_and_deterministic() {
        let drift = DriftModel::new(0.3, 24.0, 7);
        for epoch in [1.0, 9.0] {
            for i in 0..10 {
                for j in 0..10 {
                    assert_eq!(drift.factor(i, j, epoch), drift.factor(j, i, epoch));
                }
            }
        }
        let again = DriftModel::new(0.3, 24.0, 7);
        assert_eq!(drift.factor(2, 5, 3.3), again.factor(2, 5, 3.3));
    }

    #[test]
    fn self_delay_never_drifts() {
        let drift = DriftModel::new(0.5, 10.0, 3);
        assert_eq!(drift.factor(4, 4, 7.7), 1.0);
    }

    #[test]
    fn zero_amplitude_is_identity() {
        let t = topo();
        let drift = DriftModel::new(0.0, 24.0, 1);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(drift.rtt(&t, i, j, 5.0), t.host_rtt(i, j));
            }
        }
    }

    #[test]
    fn deviation_grows_from_epoch_origin_on_average() {
        // With random phases the expected |deviation| is ~2a/π at any
        // epoch; just check it is positive and below the amplitude.
        let t = topo();
        let hosts: Vec<usize> = (0..20).collect();
        let drift = DriftModel::new(0.25, 24.0, 5);
        let dev = drift.deviation(&t, &hosts, 6.0);
        assert!(dev > 0.02, "deviation {dev} suspiciously small");
        assert!(dev <= 0.25 + 1e-9, "deviation {dev} above amplitude");
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn invalid_amplitude_rejected() {
        DriftModel::new(1.5, 24.0, 0);
    }

    #[test]
    fn stream_emits_only_meaningful_changes_and_is_deterministic() {
        let t = topo();
        let hosts: Vec<usize> = (0..10).collect();
        let model = DriftModel::new(0.2, 24.0, 3);
        let mut s1 = DriftStream::new(&t, model.clone(), hosts.clone(), 1.0, 0.02);
        let mut s2 = DriftStream::new(&t, model.clone(), hosts.clone(), 1.0, 0.02);
        for _ in 0..5 {
            let b1 = s1.next().unwrap();
            let b2 = s2.next().unwrap();
            assert_eq!(b1, b2, "stream must be deterministic");
            for s in &b1.samples {
                assert!(s.i < s.j, "pairs emitted once, ordered");
                // Every emitted RTT matches the drift model at that epoch.
                let want = model.rtt(&t, hosts[s.i], hosts[s.j], b1.epoch);
                assert_eq!(s.rtt, want);
            }
        }
        // A huge threshold suppresses all emissions.
        let mut quiet = DriftStream::new(&t, model, hosts, 1.0, 10.0);
        assert!(quiet.next().unwrap().samples.is_empty());
    }

    #[test]
    fn stream_initial_matrix_is_epoch_zero_drift() {
        let t = topo();
        let hosts: Vec<usize> = (2..12).collect();
        let model = DriftModel::new(0.15, 12.0, 9);
        let s = DriftStream::new(&t, model.clone(), hosts.clone(), 1.0, 0.0);
        let m = s.initial_matrix();
        assert_eq!(m.shape(), (10, 10));
        for a in 0..10 {
            for b in 0..10 {
                assert_eq!(m[(a, b)], model.rtt(&t, hosts[a], hosts[b], 0.0));
            }
        }
        assert_eq!(s.hosts(), &hosts[..]);
    }

    #[test]
    fn stream_schedules_batches_in_epoch_order() {
        let t = topo();
        let hosts: Vec<usize> = (0..6).collect();
        let mut s = DriftStream::new(&t, DriftModel::new(0.3, 8.0, 2), hosts, 2.0, 0.0);
        let mut q = crate::event::EventQueue::new();
        s.schedule_into(&mut q, 4);
        assert_eq!(q.len(), 4);
        let mut prev = 0.0;
        while let Some((time, batch)) = q.pop() {
            assert!(time > prev, "epochs must advance");
            assert_eq!(time, batch.epoch);
            prev = time;
        }
        assert_eq!(prev, 8.0); // 4 epochs at step 2
    }

    #[test]
    fn different_pairs_drift_differently() {
        let drift = DriftModel::new(0.2, 24.0, 11);
        // At a fixed epoch, factors across pairs should not all coincide.
        let f1 = drift.factor(0, 1, 5.0);
        let f2 = drift.factor(2, 9, 5.0);
        let f3 = drift.factor(4, 17, 5.0);
        assert!((f1 - f2).abs() > 1e-6 || (f1 - f3).abs() > 1e-6);
    }
}
