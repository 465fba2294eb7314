//! Cholesky decomposition for symmetric positive-definite systems.
//!
//! Used for the normal-equations path of the IDES host-join solve
//! (Eqs. 13–14 of the paper compute `(Dᵒᵘᵗ Y)(YᵀY)⁻¹`; `YᵀY` is SPD when
//! `Y` has full column rank).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Cholesky factor `L` with `A = L Lᵀ`, `L` lower triangular.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

/// Factors a symmetric positive-definite matrix.
///
/// Only the lower triangle of `a` is read. Returns
/// [`LinalgError::NotPositiveDefinite`] when a non-positive pivot is
/// encountered.
pub fn cholesky(a: &Matrix) -> Result<Cholesky> {
    let mut l = a.clone();
    cholesky_in_place(&mut l)?;
    Ok(Cholesky { l })
}

/// Factors `a = L Lᵀ` in place: on success the lower triangle of `a` holds
/// `L` (the strict upper triangle is zeroed). The allocation-free building
/// block behind [`cholesky`] and the workspace-based normal-equation
/// solves in [`crate::solve`].
pub fn cholesky_in_place(a: &mut Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            got: a.shape(),
            op: "cholesky",
        });
    }
    let n = a.rows();
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                a[(i, j)] = s.sqrt();
            } else {
                a[(i, j)] = s / a[(j, j)];
            }
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            a[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// The factor's dimension, or [`LinalgError::NotSquare`].
fn check_factor(l: &Matrix, op: &'static str) -> Result<usize> {
    if !l.is_square() {
        return Err(LinalgError::NotSquare { got: l.shape(), op });
    }
    Ok(l.rows())
}

fn check_factor_and_vec(l: &Matrix, v: &[f64], op: &'static str) -> Result<usize> {
    check_factor(l, op)?;
    if v.len() != l.rows() {
        return Err(LinalgError::ShapeMismatch {
            expected: (l.rows(), 1),
            got: (v.len(), 1),
            op,
        });
    }
    Ok(l.rows())
}

/// Rows solved side by side by [`solve_cholesky_rows_in_place`]: one SIMD
/// lane per row. 16 lanes are two 512-bit (four 256-bit) vectors per
/// substitution step, i.e. several independent subtract chains in flight —
/// enough to hide the subtract/divide latency that bounds a single row.
const LANES: usize = 16;

/// Widest system the blocked solve transposes into its stack scratch
/// (`LANES * MAX_LANE_DIM` doubles, 8 KiB). Wider systems are solved row by
/// row in place — same bits, and still no heap allocation.
const MAX_LANE_DIM: usize = 64;

/// Systems up to this dimension (every served model's `d`) get a scratch
/// of this many entries per lane (2 KiB at 16 lanes) instead of
/// [`MAX_LANE_DIM`].
const SMALL_LANE_DIM: usize = 16;

/// The one triangular-solve body: solves `L Lᵀ x = b` for `LANES`
/// independent right-hand sides at once. `x` is lane-major — entry `i` of
/// lane `t` lives at `x[i * LANES + t]` — so a single row is the `LANES = 1`
/// instance with `x` the row itself.
///
/// Every lane runs exactly the textbook per-row sequence (forward: `s =
/// b[i]; s -= l[i][j] * x[j]` for ascending `j`; `x[i] = s / l[i][i]`; then
/// the mirrored back substitution), each step an unfused multiply, a
/// subtract and a true division. Lanes never mix, so a row's bits depend on
/// neither `LANES`, its position in the block, its neighbours' values, nor
/// the instruction set the lane loops were vectorized for.
#[inline(always)]
fn solve_lanes<const LANES: usize>(l: &Matrix, x: &mut [f64]) {
    let n = l.rows();
    let l = l.as_slice();
    let (x, _) = x.as_chunks_mut::<LANES>();
    debug_assert_eq!(x.len(), n);
    // Forward solve L y = b (y overwrites b).
    for i in 0..n {
        let li = &l[i * n..(i + 1) * n];
        let mut s = x[i];
        for j in 0..i {
            let (lij, xj) = (li[j], x[j]);
            for t in 0..LANES {
                s[t] -= lij * xj[t];
            }
        }
        for v in &mut s {
            *v /= li[i];
        }
        x[i] = s;
    }
    // Back solve Lᵀ x = y (x overwrites b).
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            let (lji, xj) = (l[j * n + i], x[j]);
            for t in 0..LANES {
                s[t] -= lji * xj[t];
            }
        }
        for v in &mut s {
            *v /= l[i * n + i];
        }
        x[i] = s;
    }
}

/// Solves `L Lᵀ x = b` in place given a factored lower triangle `l`:
/// `b` is overwritten with the solution. No heap allocation.
pub fn solve_cholesky_in_place(l: &Matrix, b: &mut [f64]) -> Result<()> {
    check_factor_and_vec(l, b, "cholesky_solve")?;
    solve_lanes::<1>(l, b);
    Ok(())
}

/// Solves the two one-row systems `La Laᵀ x = a` and `Lb Lbᵀ y = b` in
/// place, step by step together — a lone host join's outgoing and
/// incoming solve. One row's substitution is a chain of dependent
/// subtractions; two independent chains interleaved keep twice the work in
/// flight, so the pair costs about two thirds of two solves in a row. Each
/// system runs exactly the arithmetic of [`solve_cholesky_in_place`] — the
/// same unfused multiply, subtract and division in the same order — so the
/// bits are those of two separate calls.
pub fn solve_cholesky_pair_in_place(
    la: &Matrix,
    a: &mut [f64],
    lb: &Matrix,
    b: &mut [f64],
) -> Result<()> {
    let n = check_factor_and_vec(la, a, "cholesky_solve_pair")?;
    if check_factor_and_vec(lb, b, "cholesky_solve_pair")? != n {
        solve_lanes::<1>(la, a);
        solve_lanes::<1>(lb, b);
        return Ok(());
    }
    let (la, lb) = (la.as_slice(), lb.as_slice());
    // Forward solves L y = rhs (y overwrites rhs).
    for i in 0..n {
        let (ra, rb) = (&la[i * n..(i + 1) * n], &lb[i * n..(i + 1) * n]);
        let (mut s, mut t) = (a[i], b[i]);
        for j in 0..i {
            s -= ra[j] * a[j];
            t -= rb[j] * b[j];
        }
        a[i] = s / ra[i];
        b[i] = t / rb[i];
    }
    // Back solves Lᵀ x = y (x overwrites y).
    for i in (0..n).rev() {
        let (mut s, mut t) = (a[i], b[i]);
        for j in (i + 1)..n {
            s -= la[j * n + i] * a[j];
            t -= lb[j * n + i] * b[j];
        }
        a[i] = s / la[i * n + i];
        b[i] = t / lb[i * n + i];
    }
    Ok(())
}

/// Solves `A xᵀ = bᵀ` for **every row** of `rhs` in place, given a factored
/// lower triangle `l`: row `h` of `rhs` enters holding one right-hand side
/// and leaves holding the corresponding solution.
///
/// This is the multi-RHS building block of the batched host join
/// (`ides::projection::join_hosts_with`) and of every cached-Gram join: one
/// Cholesky factorization of the shared Gram matrix serves every
/// right-hand-side row.
///
/// **Lane blocking.** A single row's substitution is a chain of dependent
/// subtractions bound by floating-point latency, not throughput. Rows are
/// independent, so they are solved 16 at a time with one SIMD lane per row:
/// a block is transposed into lane-major stack scratch, the forward and
/// back substitution run once with every step applied to all lanes, and the
/// block is transposed back. A ragged tail of `r < 16` rows runs on the
/// narrowest of 1, 2, 4, 8 or 16 lanes that holds it, with its idle lanes
/// solving zeros; a lone row (a single host join) is solved in place, with
/// no scratch at all. The tail stays one block: a substitution costs about
/// the same on one lane as on sixteen, so splitting it would only add
/// latency chains.
///
/// **Bit-identity.** Each lane performs exactly the arithmetic of
/// [`solve_cholesky_in_place`] — the same unfused multiply, subtract and
/// division in the same order, from the same routine instantiated at one
/// lane — and lanes never exchange data. A row's solution therefore cannot
/// depend on the block size, on which block or lane the row landed in, on
/// the other rows' values (a NaN row poisons only itself), or on the
/// instruction set: IEEE-754 vector lanes round like scalars. No heap
/// allocation for any dimension (systems wider than the 64-column scratch
/// are solved row by row in place).
pub fn solve_cholesky_rows_in_place(l: &Matrix, rhs: &mut Matrix) -> Result<()> {
    let n = check_factor(l, "cholesky_solve_rows")?;
    if rhs.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (rhs.rows(), n),
            got: rhs.shape(),
            op: "cholesky_solve_rows",
        });
    }
    if n == 0 {
        return Ok(());
    }
    let rows = rhs.as_mut_slice();
    if n > MAX_LANE_DIM {
        for row in rows.chunks_exact_mut(n) {
            solve_lanes::<1>(l, row);
        }
        return Ok(());
    }
    let (blocks, tail) = rows.split_at_mut(rows.len() / (LANES * n) * (LANES * n));
    if !blocks.is_empty() {
        solve_on_lanes::<LANES>(l, blocks);
    }
    match tail.len() / n {
        0 => {}
        1 => solve_lanes::<1>(l, tail),
        2 => solve_on_lanes::<2>(l, tail),
        3..=4 => solve_on_lanes::<4>(l, tail),
        5..=8 => solve_on_lanes::<8>(l, tail),
        _ => solve_on_lanes::<LANES>(l, tail),
    }
    Ok(())
}

/// Solves `rows` (whole rows of `n = l.rows() ≤ MAX_LANE_DIM`) `W` at a
/// time on `W` lanes of stack scratch; a last group of fewer than `W` rows
/// leaves its idle lanes solving zeros.
#[inline(always)]
fn solve_on_lanes<const W: usize>(l: &Matrix, rows: &mut [f64]) {
    if l.rows() <= SMALL_LANE_DIM {
        solve_on_lanes_in::<W, SMALL_LANE_DIM>(l, rows);
    } else {
        solve_on_lanes_in::<W, MAX_LANE_DIM>(l, rows);
    }
}

/// [`solve_on_lanes`] with `D ≥ n` scratch entries per lane.
fn solve_on_lanes_in<const W: usize, const D: usize>(l: &Matrix, rows: &mut [f64]) {
    let n = l.rows();
    let mut scratch = [[0.0f64; W]; D];
    let lanes = &mut scratch[..n];
    for block in rows.chunks_mut(W * n) {
        if block.len() < W * n {
            // Ragged group: idle lanes solve zeros, not an earlier group's rows.
            lanes.fill([0.0; W]);
        }
        for (t, row) in block.chunks_exact(n).enumerate() {
            for (lane, &v) in lanes.iter_mut().zip(row) {
                lane[t] = v;
            }
        }
        solve_lanes::<W>(l, lanes.as_flattened_mut());
        for (t, row) in block.chunks_exact_mut(n).enumerate() {
            for (lane, v) in lanes.iter().zip(row) {
                *v = lane[t];
            }
        }
    }
}

impl Cholesky {
    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via the two triangular solves `L y = b`, `Lᵀ x = y`
    /// ([`solve_cholesky_in_place`] on a copy of `b`).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        solve_cholesky_in_place(&self.l, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_spd() {
        let a = Matrix::from_vec(
            3,
            3,
            vec![4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0],
        )
        .unwrap();
        let c = cholesky(&a).unwrap();
        let expected =
            Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 6.0, 1.0, 0.0, -8.0, 5.0, 3.0]).unwrap();
        assert!(c.l().approx_eq(&expected, 1e-12));
        // L Lᵀ reconstructs A.
        let recon = c.l().matmul_tr(c.l()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_spd_system() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]).unwrap();
        let c = cholesky(&a).unwrap();
        let x = c.solve(&[10.0, 8.0]).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!((ax[0] - 10.0).abs() < 1e-12);
        assert!((ax[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
        let zero = Matrix::zeros(2, 2);
        assert!(cholesky(&zero).is_err());
    }

    #[test]
    fn rejects_non_square() {
        assert!(cholesky(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_rows_in_place_matches_per_vector_solve() {
        let b = Matrix::from_fn(5, 3, |i, j| ((i * 2 + j) as f64 * 0.7).sin());
        let g = &b.tr_matmul(&b).unwrap() + &Matrix::identity(3).scale(0.3);
        let c = cholesky(&g).unwrap();
        // Every tail lane width (1, 2, 4, 8, 16), a full block, and full
        // blocks followed by a tail.
        for rows in [4usize, 1, 2, 3, 5, 9, 15, 16, 17, 33] {
            let mut rhs = Matrix::from_fn(rows, 3, |i, j| (i + j) as f64 - 1.5);
            let expected: Vec<Vec<f64>> = (0..rows).map(|h| c.solve(rhs.row(h)).unwrap()).collect();
            solve_cholesky_rows_in_place(c.l(), &mut rhs).unwrap();
            for h in 0..rows {
                for j in 0..3 {
                    // Bitwise: the row solve is the same arithmetic.
                    assert_eq!(
                        rhs[(h, j)].to_bits(),
                        expected[h][j].to_bits(),
                        "{rows} rows: row {h} col {j}"
                    );
                }
            }
        }
        // Shape mismatch rejected.
        let mut bad = Matrix::zeros(2, 4);
        assert!(solve_cholesky_rows_in_place(c.l(), &mut bad).is_err());
    }

    /// Deterministic SPD test matrix `BᵀB + αI`.
    fn spd(n: usize, alpha: f64) -> Matrix {
        let b = Matrix::from_fn(n + 2, n, |i, j| ((i * n + j) as f64 * 0.53).sin());
        &b.tr_matmul(&b).unwrap() + &Matrix::identity(n).scale(alpha)
    }

    #[test]
    fn pair_solve_matches_two_single_solves_bitwise() {
        for d in [1usize, 2, 5, 16, 33] {
            let (la, lb) = (
                cholesky(&spd(d, 0.7)).unwrap().l().clone(),
                cholesky(&spd(d, 2.5)).unwrap().l().clone(),
            );
            let a0: Vec<f64> = (0..d).map(|j| (j as f64 * 0.41).sin() * 3.0).collect();
            let b0: Vec<f64> = (0..d).map(|j| (j as f64 * 0.77).cos() - 0.5).collect();
            let (mut a, mut b) = (a0.clone(), b0.clone());
            solve_cholesky_pair_in_place(&la, &mut a, &lb, &mut b).unwrap();
            let (mut a1, mut b1) = (a0, b0);
            solve_cholesky_in_place(&la, &mut a1).unwrap();
            solve_cholesky_in_place(&lb, &mut b1).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&a1), "d={d}: first system");
            assert_eq!(bits(&b), bits(&b1), "d={d}: second system");
        }
        // Systems of different sizes are solved one after the other.
        let (l2, l3) = (
            cholesky(&spd(2, 1.0)).unwrap(),
            cholesky(&spd(3, 1.0)).unwrap(),
        );
        let (mut a, mut b) = (vec![1.0, 2.0], vec![1.0, 2.0, 3.0]);
        solve_cholesky_pair_in_place(l2.l(), &mut a, l3.l(), &mut b).unwrap();
        assert_eq!(a, l2.solve(&[1.0, 2.0]).unwrap());
        assert_eq!(b, l3.solve(&[1.0, 2.0, 3.0]).unwrap());
        // A right-hand side of the wrong length is an error.
        assert!(solve_cholesky_pair_in_place(l2.l(), &mut [0.0; 3], l3.l(), &mut b).is_err());
    }

    #[test]
    fn blocked_rows_match_the_single_row_solve_bitwise() {
        // Every dimension up to past two lane-vector widths, one above the
        // stack-scratch bound, and every row count across full blocks, a
        // ragged tail and the empty batch.
        for d in (1..=33).chain([MAX_LANE_DIM, MAX_LANE_DIM + 1]) {
            let l = cholesky(&spd(d, 0.7)).unwrap().l().clone();
            for rows in 0..=3 * LANES + 1 {
                let source =
                    Matrix::from_fn(rows, d, |h, j| ((h * 31 + j * 7) as f64 * 0.37).sin() * 3.0);
                let mut blocked = source.clone();
                solve_cholesky_rows_in_place(&l, &mut blocked).unwrap();
                for h in 0..rows {
                    let mut single = source.row(h).to_vec();
                    solve_cholesky_in_place(&l, &mut single).unwrap();
                    for j in 0..d {
                        assert_eq!(
                            blocked[(h, j)].to_bits(),
                            single[j].to_bits(),
                            "d={d} rows={rows} row {h} col {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_row_leaves_its_block_neighbours_untouched() {
        let d = 6;
        let l = cholesky(&spd(d, 0.9)).unwrap().l().clone();
        let rows = 2 * LANES + 3;
        let clean = Matrix::from_fn(rows, d, |h, j| (h as f64 - 4.0) * 0.5 + j as f64);
        let mut want = clean.clone();
        solve_cholesky_rows_in_place(&l, &mut want).unwrap();
        for (bad_row, poison) in [
            (3, f64::NAN),
            (LANES + 1, f64::INFINITY),
            (rows - 1, -f64::INFINITY),
        ] {
            let mut rhs = clean.clone();
            rhs.row_mut(bad_row).fill(poison);
            solve_cholesky_rows_in_place(&l, &mut rhs).unwrap();
            assert!(rhs.row(bad_row).iter().all(|v| !v.is_finite()));
            for h in (0..rows).filter(|&h| h != bad_row) {
                for j in 0..d {
                    assert_eq!(rhs[(h, j)].to_bits(), want[(h, j)].to_bits(), "row {h}");
                }
            }
        }
    }

    #[test]
    fn solves_reject_a_non_square_factor() {
        let l = Matrix::from_fn(3, 2, |i, j| (i + j + 1) as f64);
        assert!(matches!(
            solve_cholesky_in_place(&l, &mut [1.0, 2.0, 3.0]),
            Err(LinalgError::NotSquare { got: (3, 2), .. })
        ));
        let mut rhs = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_cholesky_rows_in_place(&l, &mut rhs),
            Err(LinalgError::NotSquare { got: (3, 2), .. })
        ));
        // The `Cholesky` wrapper reaches the same check.
        let c = Cholesky { l };
        assert!(matches!(
            c.solve(&[1.0, 2.0, 3.0]),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_multi_consistency() {
        let b = Matrix::from_fn(4, 3, |i, j| ((i + j) as f64 * 0.4).cos());
        let g = &b.matmul_tr(&b).unwrap() + &Matrix::identity(4).scale(0.5);
        let c = cholesky(&g).unwrap();
        // `A X = B` through the row solve: the columns of `B` are the rows
        // of `Bᵀ`.
        let rhs = Matrix::from_fn(4, 2, |i, j| (i as f64 + 1.0) * (j as f64 - 0.5));
        let mut xt = rhs.transpose();
        solve_cholesky_rows_in_place(c.l(), &mut xt).unwrap();
        assert!(g.matmul(&xt.transpose()).unwrap().approx_eq(&rhs, 1e-10));
    }
}
