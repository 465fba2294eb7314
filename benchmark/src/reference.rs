//! Independent reference for the host join (paper Eq. 11/12): plain-loop
//! normal equations, sharing no code with `ides_linalg`. The benchmark
//! re-joins sampled hosts with it and compares served estimates.

/// Least-squares solution of `A x = b` for row-major `a` (`k x d`,
/// `k >= d`, full column rank) through `(AᵀA) x = Aᵀb` and Gaussian
/// elimination with partial pivoting. `None` when `AᵀA` is singular.
pub fn lstsq_normal(a: &[f64], k: usize, d: usize, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.len(), k * d, "design matrix shape");
    assert_eq!(b.len(), k, "right-hand side length");
    // Augmented d x (d+1) system [AᵀA | Aᵀb].
    let w = d + 1;
    let mut g = vec![0.0; d * w];
    for r in 0..k {
        let row = &a[r * d..(r + 1) * d];
        for i in 0..d {
            for j in 0..d {
                g[i * w + j] += row[i] * row[j];
            }
            g[i * w + d] += row[i] * b[r];
        }
    }
    for col in 0..d {
        let pivot =
            (col..d).max_by(|&x, &y| g[x * w + col].abs().total_cmp(&g[y * w + col].abs()))?;
        if g[pivot * w + col].abs() < 1e-300 {
            return None;
        }
        if pivot != col {
            for j in 0..w {
                g.swap(col * w + j, pivot * w + j);
            }
        }
        for r in col + 1..d {
            let f = g[r * w + col] / g[col * w + col];
            for j in col..w {
                g[r * w + j] -= f * g[col * w + j];
            }
        }
    }
    let mut x = vec![0.0; d];
    for i in (0..d).rev() {
        let tail: f64 = (i + 1..d).map(|j| g[i * w + j] * x[j]).sum();
        x[i] = (g[i * w + d] - tail) / g[i * w + i];
    }
    x.iter().all(|v| v.is_finite()).then_some(x)
}

/// A host's `(outgoing, incoming)` vectors against landmark factors
/// `x`, `y` (`k x d`, row-major): outgoing solves `Y·out = d_out`,
/// incoming solves `X·in = d_in`.
pub fn join_host(
    x: &[f64],
    y: &[f64],
    k: usize,
    d: usize,
    d_out: &[f64],
    d_in: &[f64],
) -> Option<(Vec<f64>, Vec<f64>)> {
    Some((lstsq_normal(y, k, d, d_out)?, lstsq_normal(x, k, d, d_in)?))
}

/// Plain dot product (the estimate of paper Eq. 10).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(p, q)| p * q).sum()
}

/// True when `got` matches `want` to `tol` relative (absolute below 1).
pub fn close(got: f64, want: f64, tol: f64) -> bool {
    got.is_finite() && (got - want).abs() <= tol * want.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use ides::system::{IdesConfig, InformationServer};
    use ides_datasets::DistanceMatrix;
    use ides_linalg::Matrix;

    #[test]
    fn recovers_an_exact_solution() {
        // 4 x 2 system with a known solution (3, -2).
        let a = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0];
        let b = [3.0, -2.0, 1.0, 8.0];
        let x = lstsq_normal(&a, 4, 2, &b).unwrap();
        assert!(close(x[0], 3.0, 1e-12) && close(x[1], -2.0, 1e-12), "{x:?}");
        // Rank-deficient design: second column is twice the first.
        assert!(lstsq_normal(&[1.0, 2.0, 2.0, 4.0, 3.0, 6.0], 3, 2, &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn agrees_with_the_products_batched_join() {
        // Low-rank-plus-noise landmark matrix, then hosts joined by the
        // product (`InformationServer::join_batch`, QR by default) and
        // by the reference from the same measurement rows.
        let (k, d, hosts) = (24, 6, 40);
        let mut rng = SplitMix64::new(99);
        let pos: Vec<(f64, f64)> = (0..k + hosts)
            .map(|_| (rng.unit() * 100.0, rng.unit() * 100.0))
            .collect();
        let mut dist = |i: usize, j: usize| {
            let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
            (dx * dx + dy * dy).sqrt() * (1.0 + 0.05 * rng.unit()) + 1.0
        };
        let lm = Matrix::from_fn(k, k, |i, j| if i == j { 0.0 } else { dist(i, j) });
        let d_out = Matrix::from_fn(hosts, k, |h, l| dist(k + h, l));
        let d_in = Matrix::from_fn(hosts, k, |h, l| dist(l, k + h));
        let server = InformationServer::build(
            &DistanceMatrix::full("unit", lm).unwrap(),
            IdesConfig::new(d),
        )
        .unwrap();
        let joined = server.join_batch(&d_out, &d_in).unwrap();
        let (x, y) = (server.model().x().as_slice(), server.model().y().as_slice());
        for (h, product) in joined.iter().enumerate() {
            let (out, inc) = join_host(x, y, k, d, d_out.row(h), d_in.row(h)).unwrap();
            for (got, want) in product
                .outgoing
                .iter()
                .zip(&out)
                .chain(product.incoming.iter().zip(&inc))
            {
                assert!(close(*got, *want, 1e-8), "host {h}: {got} vs {want}");
            }
        }
        // And the served quantity: host-to-host estimates.
        let (a, b) = (&joined[0], &joined[1]);
        let (ra, rb) = (
            join_host(x, y, k, d, d_out.row(0), d_in.row(0)).unwrap(),
            join_host(x, y, k, d, d_out.row(1), d_in.row(1)).unwrap(),
        );
        assert!(close(a.distance_to_host(b), dot(&ra.0, &rb.1), 1e-8));
    }
}
