//! The blocked Householder factorization layer: QR and bidiagonal SVD,
//! both driven by the cache-blocked GEMM kernels in [`crate::kernels`].
//!
//! # Why this layer exists
//!
//! After the kernel layer made matrix products ~30x faster, the dense
//! decompositions — scalar-loop Householder QR and one-sided Jacobi SVD —
//! became the dominant cost of every factorization-bound path (SVD
//! coordinates, the Lipschitz+PCA baseline, QR-backed host joins). This
//! module restructures them the standard LAPACK way: accumulate `PANEL` Householder reflectors at a time into a
//! compact-WY block reflector `I − V T Vᵀ` and apply it with **two GEMMs**
//! instead of `PANEL` rank-1 updates, so the bulk of the flops runs on the
//! packed, register-tiled kernel layer.
//!
//! # The unified workspace API
//!
//! Every decomposition comes in two flavors, mirroring
//! [`crate::solve::lstsq_ridge_multi_with`]:
//!
//! * a plain entry point ([`crate::qr::qr`], [`crate::svd::svd`]) that
//!   allocates its own scratch, and
//! * a `_with` variant ([`qr_with`], [`svd_with`]) that runs entirely
//!   inside a caller-owned [`FactorWorkspace`] and a caller-owned output,
//!   so repeated factorizations (batched host joins, evaluation sweeps,
//!   streaming refreshes) allocate **nothing** once the buffers reach
//!   their high-water shapes.
//!
//! # Algorithms and blocking parameters
//!
//! * **QR** ([`qr_with`]): blocked Householder with compact-WY
//!   accumulation. Panels of [`PANEL`] columns are factored with the exact
//!   scalar arithmetic of the unblocked reference
//!   ([`crate::qr::reference::qr_unblocked`]); the trailing matrix is then
//!   updated as `A ← A − V Tᵀ (Vᵀ A)` (two GEMMs), and the thin `Q` is
//!   formed by backward block accumulation (two GEMMs per panel). When the
//!   matrix has at most [`PANEL`] columns there is a single panel and no
//!   trailing update, and `Q` is formed by the reference's scalar loop —
//!   so the result is **bit-identical to the unblocked algorithm** in that
//!   regime (property-tested).
//! * **SVD** ([`svd_with`]): `dlabrd`-style **panel** Golub–Kahan
//!   bidiagonalization — each [`PANEL`]-wide panel accumulates `X`/`Y`
//!   update matrices so the trailing block is updated as **two GEMMs**
//!   (`A ← A − U·Yᵀ − X·Vᵀ`) instead of per-column rank-1 sweeps; the
//!   streamed reference handles the final partial panel, so inputs of at
//!   most [`PANEL`] columns are bit-identical to the streamed algorithm
//!   by construction. Blocked compact-WY accumulation of `U` and `V` on
//!   the GEMM layer, then implicit-shift QR iteration on the bidiagonal.
//!   The Givens sweeps are applied to **transposed** copies of `U`/`V`
//!   staged in the idle panel buffers: on row-major storage a rotation of
//!   two columns is a strided gather, but on the transpose it is an
//!   elementwise pass over two contiguous rows that auto-vectorizes —
//!   same per-element operations in the same order, so bitwise-identical
//!   output, at a fraction of the time (the sweeps were >90 % of SVD time
//!   on distance-matrix inputs). One-sided Jacobi
//!   ([`crate::svd::svd_jacobi`]) is kept as the small-matrix path and
//!   the accuracy/robustness fallback.
//!
//! The panel updates fan out exactly like every other product on the
//! kernel layer — the trailing updates and block accumulations are plain
//! GEMMs, whose row bands are numerically independent — so results are
//! **bit-identical** at any thread budget.

use crate::error::{LinalgError, Result};
use crate::kernels::{self, Op};
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::svd::Svd;

/// Panel width of the blocked algorithms: reflectors accumulated per
/// compact-WY block. Matrices with at most this many columns are factored
/// by the scalar reference arithmetic (a single panel has no trailing
/// update to block).
pub const PANEL: usize = 32;

/// Below or at this dimension the dispatching [`crate::svd::svd`] uses
/// one-sided Jacobi: at small sizes the O(n³) constant of a Jacobi sweep is
/// irrelevant and its accuracy on tiny spectra is unbeatable.
pub const SMALL: usize = 32;

/// Maximum implicit-shift iterations per singular value.
const MAX_SHIFT_ITERS: usize = 50;

/// Reusable scratch for the blocked factorizations. One workspace serves
/// QR, SVD and truncated SVD interchangeably; buffers grow to their
/// high-water shapes and are then reused without allocation.
#[derive(Debug, Default, Clone)]
pub struct FactorWorkspace {
    /// Working copy of the input (`m x n`).
    work: Matrix,
    /// Left/column Householder reflectors, stored as columns (`m x n`);
    /// column `k`'s support starts at row `k`.
    vl: Matrix,
    /// `vᵀv` per left reflector.
    vl_n2: Vec<f64>,
    /// Right-reflector store for the bidiagonalization (`n x n`); column
    /// `j`'s support starts at row `j`.
    vr: Matrix,
    /// `vᵀv` per right reflector.
    vr_n2: Vec<f64>,
    /// Compact-WY triangular factor (`PANEL x PANEL`).
    t: Matrix,
    /// Block-apply buffer `W = Vᵀ A` (`PANEL x n`).
    w: Matrix,
    /// Block-apply buffer `W₂ = T W` (`PANEL x n`).
    w2: Matrix,
    /// Block-apply buffer `P = V W₂` (`m x n`).
    p: Matrix,
    /// Transposed-input staging for wide (`m < n`) SVD inputs.
    at: Matrix,
    /// Diagonal of the bidiagonal form.
    d: Vec<f64>,
    /// Superdiagonal of the bidiagonal form (shifted NR layout).
    e: Vec<f64>,
    /// Length-`max(m, n)` vector scratch.
    small: Vec<f64>,
    /// Second vector scratch.
    small2: Vec<f64>,
    /// Deferred Givens cosines (row-swept application).
    cs: Vec<f64>,
    /// Deferred Givens sines.
    sn: Vec<f64>,
    /// Second deferred rotation buffer (the SVD needs U- and V-streams).
    cs2: Vec<f64>,
    /// Second deferred rotation buffer.
    sn2: Vec<f64>,
    /// Descending-order permutation of the computed spectrum.
    perm: Vec<usize>,
    /// `dlabrd` panel accumulator `X` (`m x PANEL`): column `j` holds
    /// `β'·Ã·u` for the panel's `j`-th right reflector.
    x: Matrix,
    /// `dlabrd` panel accumulator `Y` (`n x PANEL`): column `j` holds
    /// `β·Ãᵀ·v` for the panel's `j`-th left reflector.
    y: Matrix,
    /// Panel correction coefficients (four `PANEL`-long sections:
    /// `u1`, `u2` for the `Y` columns, `v1`, `v2` for the `X` columns).
    coef: Vec<f64>,
    /// Subspace-iteration staging for [`crate::svd::svd_truncated_with`].
    pub(crate) trunc: crate::svd::TruncStage,
}

impl FactorWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        FactorWorkspace::default()
    }
}

// ---------------------------------------------------------------------------
// Shared Householder + compact-WY machinery
// ---------------------------------------------------------------------------

/// Computes the Householder reflector of `store`'s column `col` over rows
/// `row0..rows`, reading the source values from `src`'s same region, using
/// the exact arithmetic of the scalar reference: `α = −sign(x₀)‖x‖`,
/// `v = x − α e₁`, `H = I − (2/vᵀv) v vᵀ`. Writes `v` into `store` column
/// `col` (zero elsewhere is the caller's invariant), records `vᵀv` in
/// `n2[col]`, and returns `α` (0 for an identity reflector).
fn householder_col(
    src: &Matrix,
    src_col: usize,
    row0: usize,
    rows: usize,
    store: &mut Matrix,
    n2: &mut [f64],
    col: usize,
) -> f64 {
    for i in row0..rows {
        store[(i, col)] = src[(i, src_col)];
    }
    let norm = (row0..rows)
        .map(|i| store[(i, col)] * store[(i, col)])
        .sum::<f64>()
        .sqrt();
    let alpha = if store[(row0, col)] >= 0.0 {
        -norm
    } else {
        norm
    };
    if alpha == 0.0 {
        for i in row0..rows {
            store[(i, col)] = 0.0;
        }
        n2[col] = 0.0;
        return 0.0;
    }
    store[(row0, col)] -= alpha;
    let vnorm2 = (row0..rows)
        .map(|i| store[(i, col)] * store[(i, col)])
        .sum::<f64>();
    if vnorm2 == 0.0 {
        for i in row0..rows {
            store[(i, col)] = 0.0;
        }
        n2[col] = 0.0;
        return 0.0;
    }
    n2[col] = vnorm2;
    alpha
}

/// Builds the compact-WY triangular factor `T` (upper triangular,
/// `nb x nb`) for reflector columns `k0..k0+nb` of `v`, so that
/// `H_{k0} ⋯ H_{k0+nb−1} = I − V T Vᵀ` with `βⱼ = 2/vⱼᵀvⱼ`.
fn build_t(v: &Matrix, n2: &[f64], k0: usize, nb: usize, t: &mut Matrix, tmp: &mut Vec<f64>) {
    let rows = v.rows();
    t.reset_shape(nb, nb);
    tmp.clear();
    tmp.resize(nb, 0.0);
    for j in 0..nb {
        let col = k0 + j;
        let beta = if n2[col] == 0.0 { 0.0 } else { 2.0 / n2[col] };
        // tmp = V_{0..j}ᵀ v_j (v_j's support starts at row `col`).
        for (i, tv) in tmp.iter_mut().enumerate().take(j) {
            let mut s = 0.0;
            for r in col..rows {
                s += v[(r, k0 + i)] * v[(r, col)];
            }
            *tv = s;
        }
        // T_{0..j, j} = −βⱼ · T_{0..j,0..j} · tmp ; T_{j,j} = βⱼ.
        for i in 0..j {
            let mut s = 0.0;
            for (l, &tv) in tmp.iter().enumerate().take(j).skip(i) {
                s += t[(i, l)] * tv;
            }
            t[(i, j)] = -beta * s;
        }
        t[(j, j)] = beta;
    }
}

/// Applies the block reflector of columns `k0..k1` of `v` to
/// `target[k0.., col0..]`: `B ← B − V T' (Vᵀ B)` where `T' = Tᵀ` when
/// `t_trans` (the trailing update applies `(I − V T Vᵀ)ᵀ`) and `T' = T`
/// otherwise (forward products, used by the backward accumulation).
/// Three GEMMs on the kernel layer; all scratch lives in `ws`.
#[allow(clippy::too_many_arguments)]
fn apply_block_reflector(
    v: &Matrix,
    n2: &[f64],
    k0: usize,
    k1: usize,
    t_trans: bool,
    target: &mut Matrix,
    col0: usize,
    t: &mut Matrix,
    w: &mut Matrix,
    w2: &mut Matrix,
    p: &mut Matrix,
    tmp: &mut Vec<f64>,
) {
    let nb = k1 - k0;
    let rows = target.rows();
    let ld = target.cols();
    let cols = ld - col0;
    if nb == 0 || cols == 0 || rows <= k0 {
        return;
    }
    build_t(v, n2, k0, nb, t, tmp);
    let vld = v.cols();
    let band = rows - k0;
    // W = Vᵀ · B  (nb x cols).
    w.reset_shape(nb, cols);
    kernels::gemm(
        &v.as_slice()[k0 * vld + k0..],
        Op::Trans,
        vld,
        &target.as_slice()[k0 * ld + col0..],
        Op::NoTrans,
        ld,
        w.as_mut_slice(),
        nb,
        cols,
        band,
    );
    // W₂ = T' · W  (nb x cols).
    w2.reset_shape(nb, cols);
    kernels::gemm(
        t.as_slice(),
        if t_trans { Op::Trans } else { Op::NoTrans },
        nb,
        w.as_slice(),
        Op::NoTrans,
        cols,
        w2.as_mut_slice(),
        nb,
        cols,
        nb,
    );
    // P = V · W₂  (band x cols), then B ← B − P.
    p.reset_shape(band, cols);
    kernels::gemm(
        &v.as_slice()[k0 * vld + k0..],
        Op::NoTrans,
        vld,
        w2.as_slice(),
        Op::NoTrans,
        cols,
        p.as_mut_slice(),
        band,
        cols,
        nb,
    );
    for i in 0..band {
        let dst = &mut target.row_mut(k0 + i)[col0..];
        for (dv, &pv) in dst.iter_mut().zip(p.row(i).iter()) {
            *dv -= pv;
        }
    }
}

/// Accumulates `Q ← H_0 H_1 ⋯ H_{K−1} · Q` by backward application of the
/// reflectors stored in `v`'s columns (column `j`'s support starts at row
/// `j`). Scalar reference arithmetic when `K <= PANEL` (bit-identity with
/// the unblocked algorithms), blocked compact-WY otherwise.
fn accumulate_reflectors(v: &Matrix, n2: &[f64], q: &mut Matrix, ws: &mut ScratchRefs<'_>) {
    let k_total = n2.len();
    let rows = q.rows();
    let cols = q.cols();
    if k_total <= PANEL {
        for k in (0..k_total).rev() {
            let vn = n2[k];
            if vn == 0.0 {
                continue;
            }
            for j in 0..cols {
                let dot: f64 = (k..rows).map(|i| v[(i, k)] * q[(i, j)]).sum();
                let s = 2.0 * dot / vn;
                for i in k..rows {
                    q[(i, j)] -= s * v[(i, k)];
                }
            }
        }
        return;
    }
    let mut k0 = (k_total - 1) / PANEL * PANEL;
    loop {
        let k1 = (k0 + PANEL).min(k_total);
        apply_block_reflector(v, n2, k0, k1, false, q, 0, ws.t, ws.w, ws.w2, ws.p, ws.tmp);
        if k0 == 0 {
            break;
        }
        k0 -= PANEL;
    }
}

/// Mutable views over the block-apply scratch, so the driver loops can
/// borrow the reflector stores and the scratch simultaneously.
struct ScratchRefs<'a> {
    t: &'a mut Matrix,
    w: &'a mut Matrix,
    w2: &'a mut Matrix,
    p: &'a mut Matrix,
    tmp: &'a mut Vec<f64>,
}

// ---------------------------------------------------------------------------
// Blocked QR
// ---------------------------------------------------------------------------

/// Blocked Householder QR into a caller-owned [`Qr`] and
/// [`FactorWorkspace`] — the allocation-free variant of [`crate::qr::qr`].
///
/// `a` is `m x n` with `m >= n`; `out.q` becomes the thin `m x n`
/// orthonormal factor and `out.r` the `n x n` upper triangle. See the
/// [module docs](self) for the blocking scheme and the bit-identity
/// guarantee at `n <= PANEL`.
pub fn qr_with(a: &Matrix, ws: &mut FactorWorkspace, out: &mut Qr) -> Result<()> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, n),
            got: (m, n),
            op: "qr (requires rows >= cols)",
        });
    }
    ws.work.reset_shape(m, n);
    ws.work.as_mut_slice().copy_from_slice(a.as_slice());
    ws.vl.reset_shape(m, n);
    ws.vl_n2.clear();
    ws.vl_n2.resize(n, 0.0);

    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + PANEL).min(n);
        for k in k0..k1 {
            let alpha = householder_col(&ws.work, k, k, m, &mut ws.vl, &mut ws.vl_n2, k);
            if alpha == 0.0 {
                continue;
            }
            let vn = ws.vl_n2[k];
            // Scalar reference application to the panel's own columns.
            for j in k..k1 {
                let dot: f64 = (k..m).map(|i| ws.vl[(i, k)] * ws.work[(i, j)]).sum();
                let s = 2.0 * dot / vn;
                for i in k..m {
                    ws.work[(i, j)] -= s * ws.vl[(i, k)];
                }
            }
        }
        if k1 < n {
            // Trailing update B ← (I − V T Vᵀ)ᵀ B via two GEMMs.
            apply_block_reflector(
                &ws.vl,
                &ws.vl_n2,
                k0,
                k1,
                true,
                &mut ws.work,
                k1,
                &mut ws.t,
                &mut ws.w,
                &mut ws.w2,
                &mut ws.p,
                &mut ws.small,
            );
        }
        k0 = k1;
    }

    // Thin Q by backward accumulation over the identity block.
    out.q.reset_shape(m, n);
    for j in 0..n {
        out.q[(j, j)] = 1.0;
    }
    let mut scratch = ScratchRefs {
        t: &mut ws.t,
        w: &mut ws.w,
        w2: &mut ws.w2,
        p: &mut ws.p,
        tmp: &mut ws.small,
    };
    accumulate_reflectors(&ws.vl, &ws.vl_n2, &mut out.q, &mut scratch);

    // R: upper triangle of the reduced working copy.
    out.r.reset_shape(n, n);
    for i in 0..n {
        for j in i..n {
            out.r[(i, j)] = ws.work[(i, j)];
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Blocked SVD (Golub–Kahan bidiagonalization + implicit-shift QR)
// ---------------------------------------------------------------------------

/// Blocked SVD into a caller-owned [`Svd`] and [`FactorWorkspace`] — the
/// allocation-free Golub–Kahan path behind [`crate::svd::svd`].
///
/// Any shape is accepted (wide inputs run on a transposed staging copy).
/// Returns [`LinalgError::NoConvergence`] if the implicit-shift iteration
/// fails (the dispatching [`crate::svd::svd`] falls back to one-sided
/// Jacobi in that case); `out` is unspecified on error.
pub fn svd_with(a: &Matrix, ws: &mut FactorWorkspace, out: &mut Svd) -> Result<()> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        out.u.reset_shape(m, 0);
        out.singular_values.clear();
        out.v.reset_shape(n, 0);
        return Ok(());
    }
    if m < n {
        // Stage the transpose and swap U/V afterwards.
        ws.at.reset_shape(n, m);
        for i in 0..m {
            for j in 0..n {
                ws.at[(j, i)] = a[(i, j)];
            }
        }
        let at = std::mem::take(&mut ws.at);
        let result = svd_core(&at, ws, out);
        ws.at = at;
        result?;
        std::mem::swap(&mut out.u, &mut out.v);
        return Ok(());
    }
    svd_core(a, ws, out)
}

/// [`svd_with`] core for `m >= n` inputs.
fn svd_core(a: &Matrix, ws: &mut FactorWorkspace, out: &mut Svd) -> Result<()> {
    let (m, n) = a.shape();

    // --- Golub–Kahan bidiagonalization -----------------------------------
    ws.work.reset_shape(m, n);
    ws.work.as_mut_slice().copy_from_slice(a.as_slice());
    ws.vl.reset_shape(m, n);
    ws.vl_n2.clear();
    ws.vl_n2.resize(n, 0.0);
    ws.vr.reset_shape(n, n);
    ws.vr_n2.clear();
    ws.vr_n2.resize(n, 0.0);
    ws.d.clear();
    ws.d.resize(n, 0.0);
    // NR-layout superdiagonal: e[0] = 0, e[i] couples d[i−1], d[i].
    ws.e.clear();
    ws.e.resize(n, 0.0);
    ws.small.clear();
    ws.small.resize(n, 0.0);

    bidiagonalize(ws, m, n);

    // --- Accumulate U (m x n) and V (n x n) on the GEMM layer -------------
    out.u.reset_shape(m, n);
    for j in 0..n {
        out.u[(j, j)] = 1.0;
    }
    {
        let mut scratch = ScratchRefs {
            t: &mut ws.t,
            w: &mut ws.w,
            w2: &mut ws.w2,
            p: &mut ws.p,
            tmp: &mut ws.small,
        };
        accumulate_reflectors(&ws.vl, &ws.vl_n2, &mut out.u, &mut scratch);
    }
    out.v.reset_shape(n, n);
    for j in 0..n {
        out.v[(j, j)] = 1.0;
    }
    {
        let mut scratch = ScratchRefs {
            t: &mut ws.t,
            w: &mut ws.w,
            w2: &mut ws.w2,
            p: &mut ws.p,
            tmp: &mut ws.small,
        };
        accumulate_reflectors(&ws.vr, &ws.vr_n2, &mut out.v, &mut scratch);
    }

    // --- Implicit-shift QR iteration on the bidiagonal --------------------
    bidiag_qr(ws, &mut out.u, &mut out.v)?;

    // --- Sort the spectrum descending and emit ----------------------------
    let d = &ws.d;
    ws.perm.clear();
    ws.perm.extend(0..n);
    // Unstable sort: allocation-free (the stable sort's merge buffer would
    // break the zero-alloc contract of the `_with` variants) and still
    // deterministic for a fixed input.
    ws.perm
        .sort_unstable_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("finite singular values"));
    out.singular_values.clear();
    out.singular_values.extend(ws.perm.iter().map(|&i| ws.d[i]));
    permute_cols(&mut out.u, &ws.perm, &mut ws.p);
    permute_cols(&mut out.v, &ws.perm, &mut ws.p);
    Ok(())
}

/// Golub–Kahan bidiagonalization of `ws.work` (`m x n`, `m >= n`),
/// producing left reflectors in `ws.vl`, right reflectors in `ws.vr`, the
/// diagonal in `ws.d` and the superdiagonal in `ws.e` (NR layout).
///
/// Dispatch: while more than [`PANEL`] columns remain, panels are reduced
/// by the BLAS-3 `dlabrd` scheme ([`bidiag_panel`]) and the trailing block
/// is updated by two GEMMs per panel; the final (or only) `<= PANEL`
/// columns run the streamed rank-1 reference ([`bidiagonalize_streamed`]).
/// A matrix with at most `PANEL` columns therefore takes the streamed path
/// end to end, which keeps single-panel results **bit-identical** to the
/// pre-blocking algorithm (property-tested); wider matrices agree to the
/// usual reordering tolerance (~1e-9 relative on the test spectra).
fn bidiagonalize(ws: &mut FactorWorkspace, m: usize, n: usize) {
    let mut k0 = 0;
    while n - k0 > PANEL {
        bidiag_panel(ws, m, n, k0);
        k0 += PANEL;
    }
    bidiagonalize_streamed(ws, m, n, k0);
}

/// Streamed rank-1 Golub–Kahan reduction of columns `k_start..n`: each
/// left/right reflector is applied to the whole trailing block before the
/// next one is formed. This is the reference arithmetic the panel path
/// must reproduce, and the production path for the last partial panel.
fn bidiagonalize_streamed(ws: &mut FactorWorkspace, m: usize, n: usize, k_start: usize) {
    for k in k_start..n {
        // Left reflector zeroing column k below the diagonal.
        let alpha = householder_col(&ws.work, k, k, m, &mut ws.vl, &mut ws.vl_n2, k);
        if alpha != 0.0 {
            let vn = ws.vl_n2[k];
            // w = Bᵀ v over the trailing block, streamed row-major.
            let w = &mut ws.small;
            for wj in w.iter_mut().take(n).skip(k) {
                *wj = 0.0;
            }
            for i in k..m {
                let vi = ws.vl[(i, k)];
                if vi == 0.0 {
                    continue;
                }
                let row = ws.work.row(i);
                for (wj, &bv) in w[k..n].iter_mut().zip(row[k..].iter()) {
                    *wj += vi * bv;
                }
            }
            // B ← B − (2/vᵀv) v wᵀ.
            for i in k..m {
                let c = 2.0 * ws.vl[(i, k)] / vn;
                if c == 0.0 {
                    continue;
                }
                let row = ws.work.row_mut(i);
                for (bv, &wj) in row[k..].iter_mut().zip(w[k..n].iter()) {
                    *bv -= c * wj;
                }
            }
        }
        ws.d[k] = ws.work[(k, k)];

        if k + 2 < n {
            // Right reflector zeroing row k beyond the superdiagonal. The
            // reflector lives in vr column k+1 (support rows k+1..n).
            let col = k + 1;
            let norm = (col..n)
                .map(|j| ws.work[(k, j)] * ws.work[(k, j)])
                .sum::<f64>()
                .sqrt();
            let alpha = if ws.work[(k, col)] >= 0.0 {
                -norm
            } else {
                norm
            };
            if alpha != 0.0 {
                for j in col..n {
                    ws.vr[(j, col)] = ws.work[(k, j)];
                }
                ws.vr[(col, col)] -= alpha;
                let vn = (col..n)
                    .map(|j| ws.vr[(j, col)] * ws.vr[(j, col)])
                    .sum::<f64>();
                if vn != 0.0 {
                    ws.vr_n2[col] = vn;
                    // Apply from the right to rows k..m: contiguous row dots.
                    for i in k..m {
                        let row = ws.work.row_mut(i);
                        let mut z = 0.0;
                        for (j, &rv) in row.iter().enumerate().skip(col) {
                            z += ws.vr[(j, col)] * rv;
                        }
                        let c = 2.0 * z / vn;
                        if c != 0.0 {
                            for (j, rv) in row.iter_mut().enumerate().skip(col) {
                                *rv -= c * ws.vr[(j, col)];
                            }
                        }
                    }
                } else {
                    for j in col..n {
                        ws.vr[(j, col)] = 0.0;
                    }
                }
            }
            ws.e[k + 1] = ws.work[(k, k + 1)];
        } else if k + 1 < n {
            ws.e[k + 1] = ws.work[(k, k + 1)];
        }
    }
}

/// `dlabrd`-style BLAS-3 panel step: reduces columns `k0..k0+PANEL` to
/// bidiagonal form while only touching the panel's own rows/columns, then
/// applies the accumulated update to the trailing block as **two GEMMs**.
///
/// Instead of applying each reflector to the whole trailing block (the
/// streamed path's `2·PANEL` rank-1 sweeps), the update is kept factored:
/// after the panel, the trailing block satisfies
///
/// ```text
/// A ← A − V_l · Yᵀ − X · V_rᵀ
/// ```
///
/// where column `j` of `Y = β·Ãᵀ·v_j` / `X = β'·Ã·u_j` is the (scaled)
/// product of the *virtually updated* matrix `Ã` with the panel's `j`-th
/// left/right reflector. Within the panel, only the current column (step 1)
/// and row (step 4) are materialized, with the lazy contributions folded in
/// via short fused dot products; the `Y`/`X` columns themselves are
/// corrected for the panel's earlier reflectors through the `u1/u2/v1/v2`
/// coefficient vectors (LAPACK `dlabrd`'s five GEMV shapes, here as fused
/// row sweeps on [`kernels::dot`]/[`kernels::axpy_with_isa`]). This moves roughly
/// half of the bidiagonalization's flops — the trailing update — onto the
/// blocked GEMM kernel; the other half (the `Y`/`X` products) streams
/// through the SIMD dot/axpy primitives.
fn bidiag_panel(ws: &mut FactorWorkspace, m: usize, n: usize, k0: usize) {
    let nb = PANEL;
    let k1 = k0 + nb;
    debug_assert!(k1 < n, "panel must have a trailing block");
    let FactorWorkspace {
        work,
        vl,
        vl_n2,
        vr,
        vr_n2,
        x,
        y,
        d,
        e,
        small,
        small2,
        coef,
        p,
        ..
    } = ws;
    x.reset_shape(m, nb);
    y.reset_shape(n, nb);
    small2.resize(m.max(n), 0.0);
    coef.resize(4 * nb, 0.0);
    let isa = kernels::active_isa();

    for i in k0..k1 {
        let jl = i - k0; // local reflector index within the panel
        let (u1, rest) = coef.split_at_mut(nb);
        let (u2, rest) = rest.split_at_mut(nb);
        let (v1, v2) = rest.split_at_mut(nb);

        // (1) Materialize column i (rows i..m): fold in the panel's lazy
        //     updates, work(r,i) −= vl_r·y_i + x_r·u_i.
        if jl > 0 {
            let y_row_i = &y.row(i)[..jl];
            let vr_row_i = &vr.row(i)[k0 + 1..k0 + 1 + jl];
            for r in i..m {
                let lhs = kernels::dot_with_isa(isa, &vl.row(r)[k0..i], y_row_i);
                let rhs = kernels::dot_with_isa(isa, &x.row(r)[..jl], vr_row_i);
                work[(r, i)] -= lhs + rhs;
            }
        }

        // (2) Left Householder on the updated column i.
        let alpha = householder_col(work, i, i, m, vl, vl_n2, i);
        d[i] = if alpha != 0.0 { alpha } else { work[(i, i)] };

        // (3) Y column jl = β·Ãᵀ·v over cols i+1..n: raw product against
        //     the stale block plus u1/u2 corrections for the panel's
        //     earlier reflectors (all in one row sweep over work).
        if alpha != 0.0 {
            let beta = 2.0 / vl_n2[i];
            let y_raw = &mut small2[..n];
            y_raw[i + 1..n].fill(0.0);
            u1[..jl].fill(0.0);
            u2[..jl].fill(0.0);
            for r in i..m {
                let vi = vl[(r, i)];
                if vi == 0.0 {
                    continue;
                }
                kernels::axpy_with_isa(isa, vi, &work.row(r)[i + 1..], &mut y_raw[i + 1..n]);
                kernels::axpy_with_isa(isa, vi, &vl.row(r)[k0..i], &mut u1[..jl]);
                kernels::axpy_with_isa(isa, vi, &x.row(r)[..jl], &mut u2[..jl]);
            }
            for c in i + 1..n {
                let corr = kernels::dot_with_isa(isa, &y.row(c)[..jl], &u1[..jl])
                    + kernels::dot_with_isa(isa, &vr.row(c)[k0 + 1..k0 + 1 + jl], &u2[..jl]);
                y[(c, jl)] = beta * (small2[c] - corr);
            }
        }
        // α == 0 leaves Y's column zero (reset_shape) — a no-op reflector.

        // (4) Materialize row i (cols i+1..n), now including the left
        //     reflector just formed (t = jl term uses the fresh Y column).
        {
            let vl_row_i = &vl.row(i)[k0..i + 1];
            let x_row_i = &x.row(i)[..jl];
            for c in i + 1..n {
                let lhs = kernels::dot_with_isa(isa, vl_row_i, &y.row(c)[..jl + 1]);
                let rhs = kernels::dot_with_isa(isa, x_row_i, &vr.row(c)[k0 + 1..k0 + 1 + jl]);
                work[(i, c)] -= lhs + rhs;
            }
        }

        // (5) Right Householder on the updated row i (stored in vr column
        //     i+1, support rows i+1..n), exactly as the streamed path.
        let mut have_right = false;
        if i + 2 < n {
            let col = i + 1;
            let row_i = work.row(i);
            let norm = row_i[col..n].iter().map(|&v| v * v).sum::<f64>().sqrt();
            let alpha_r = if row_i[col] >= 0.0 { -norm } else { norm };
            if alpha_r != 0.0 {
                for j in col..n {
                    vr[(j, col)] = work[(i, j)];
                }
                vr[(col, col)] -= alpha_r;
                let vn = (col..n).map(|j| vr[(j, col)] * vr[(j, col)]).sum::<f64>();
                if vn != 0.0 {
                    vr_n2[col] = vn;
                    e[i + 1] = alpha_r;
                    have_right = true;
                } else {
                    for j in col..n {
                        vr[(j, col)] = 0.0;
                    }
                }
            }
            if !have_right {
                e[i + 1] = work[(i, col)];
            }
        } else {
            // i + 2 == n: the trailing block is one column — no right
            // reflector (mirrors the streamed `k + 2 < n` condition).
            e[i + 1] = work[(i, i + 1)];
        }

        // (6) X column jl = β'·Ã·u over rows i+1..m: raw row dots against
        //     the stale block, corrected by v1 (left reflectors t <= jl,
        //     via Y) and v2 (right reflectors t < jl).
        if have_right {
            let col = i + 1;
            let beta_r = 2.0 / vr_n2[col];
            // Contiguous copy of u (vr column i+1) for the row dots.
            let u = &mut small[..n];
            for (j, uj) in u.iter_mut().enumerate().skip(col) {
                *uj = vr[(j, col)];
            }
            v1[..jl + 1].fill(0.0);
            v2[..jl].fill(0.0);
            for c in col..n {
                let uc = vr[(c, col)];
                if uc == 0.0 {
                    continue;
                }
                kernels::axpy_with_isa(isa, uc, &y.row(c)[..jl + 1], &mut v1[..jl + 1]);
                kernels::axpy_with_isa(isa, uc, &vr.row(c)[k0 + 1..k0 + 1 + jl], &mut v2[..jl]);
            }
            let u = &small[col..n];
            for r in i + 1..m {
                let raw = kernels::dot_with_isa(isa, &work.row(r)[col..], u);
                let corr = kernels::dot_with_isa(isa, &vl.row(r)[k0..i + 1], &v1[..jl + 1])
                    + kernels::dot_with_isa(isa, &x.row(r)[..jl], &v2[..jl]);
                x[(r, jl)] = beta_r * (raw - corr);
            }
        }
        // No right reflector leaves X's column zero — a no-op update.
    }

    // Trailing update A ← A − V_l·Yᵀ − X·V_rᵀ over rows/cols k1.., as two
    // GEMMs on the kernel layer (the BLAS-3 payoff of the panel scheme).
    let rows = m - k1;
    let cols = n - k1;
    let ld = n;
    p.reset_shape(rows, cols);
    kernels::gemm(
        &vl.as_slice()[k1 * vl.cols() + k0..],
        Op::NoTrans,
        vl.cols(),
        &y.as_slice()[k1 * nb..],
        Op::Trans,
        nb,
        p.as_mut_slice(),
        rows,
        cols,
        nb,
    );
    for r in 0..rows {
        let dst = &mut work.row_mut(k1 + r)[k1..];
        for (dv, &pv) in dst.iter_mut().zip(p.row(r).iter()) {
            *dv -= pv;
        }
    }
    p.reset_shape(rows, cols);
    kernels::gemm(
        &x.as_slice()[k1 * nb..],
        Op::NoTrans,
        nb,
        &vr.as_slice()[k1 * ld + k0 + 1..],
        Op::Trans,
        ld,
        p.as_mut_slice(),
        rows,
        cols,
        nb,
    );
    for r in 0..rows {
        let dst = &mut work.row_mut(k1 + r)[k1..];
        for (dv, &pv) in dst.iter_mut().zip(p.row(r).iter()) {
            *dv -= pv;
        }
    }
}

/// Reorders `m`'s columns as `m[:, perm[dst]] → dst` through the staging
/// buffer `stage`.
fn permute_cols(m: &mut Matrix, perm: &[usize], stage: &mut Matrix) {
    let (rows, cols) = m.shape();
    stage.reset_shape(rows, cols);
    stage.as_mut_slice().copy_from_slice(m.as_slice());
    for (dst, &src) in perm.iter().enumerate() {
        if dst == src {
            continue;
        }
        for i in 0..rows {
            m[(i, dst)] = stage[(i, src)];
        }
    }
}

/// Transposes `src` into `dst` (reshaped to fit; allocation-free once
/// `dst`'s backing buffer has grown to size).
fn transpose_into(src: &Matrix, dst: &mut Matrix) {
    let (r, c) = src.shape();
    dst.reset_shape(c, r);
    for i in 0..r {
        for (j, &x) in src.row(i).iter().enumerate() {
            dst[(j, i)] = x;
        }
    }
}

/// Applies the Givens rotation `(c, s)` to rows `i < j` of `mat`
/// elementwise: `row_i ← c·row_i + s·row_j`, `row_j ← c·row_j − s·row_i`
/// (old values on the right). The two rows are contiguous and every
/// element is independent, so the loop auto-vectorizes.
#[inline]
fn rot_rows(mat: &mut Matrix, i: usize, j: usize, c: f64, s: f64) {
    let cols = mat.cols();
    let (head, tail) = mat.as_mut_slice().split_at_mut(j * cols);
    let ra = &mut head[i * cols..(i + 1) * cols];
    let rb = &mut tail[..cols];
    for (x, z) in ra.iter_mut().zip(rb.iter_mut()) {
        let xv = *x;
        let zv = *z;
        *x = xv * c + zv * s;
        *z = zv * c - xv * s;
    }
}

/// Implicit-shift QR iteration on the bidiagonal `(ws.d, ws.e)` with
/// rotations accumulated into `u` / `v` columns. `ws.e` uses the shifted
/// layout `e[i]` couples `d[i−1], d[i]` (`e[0]` unused and zero).
///
/// The rotations act on *column pairs* of `u`/`v`; applied directly to the
/// row-major layout that is a strided sweep with a serial dependency along
/// each row, which defeats vectorization. Instead the iteration runs on
/// the **transposes** (staged in the panel `ws.x`/`ws.y` buffers, idle by
/// this phase), where each rotation is an elementwise pass over two
/// contiguous rows ([`rot_rows`]) that the compiler vectorizes. Each
/// element still sees the same operations in the same order as the direct
/// column sweep, so the results are bit-identical — only the loop nest
/// changes. The transposes are folded back into `u`/`v` on success.
fn bidiag_qr(ws: &mut FactorWorkspace, u: &mut Matrix, v: &mut Matrix) -> Result<()> {
    let n = ws.d.len();
    let eps = f64::EPSILON;
    let mut anorm = 0.0f64;
    for i in 0..n {
        anorm = anorm.max(ws.d[i].abs() + ws.e[i].abs());
    }
    let tiny = eps * anorm;

    transpose_into(u, &mut ws.x);
    transpose_into(v, &mut ws.y);
    let ut = &mut ws.x;
    let vt = &mut ws.y;

    for k in (0..n).rev() {
        let mut its = 0;
        loop {
            // Find the start of the unreduced block ending at k.
            let mut l = k;
            let mut cancel = false;
            loop {
                if l == 0 || ws.e[l].abs() <= tiny {
                    ws.e[l] = 0.0;
                    break;
                }
                if ws.d[l - 1].abs() <= tiny {
                    cancel = true;
                    break;
                }
                l -= 1;
            }
            if cancel {
                // d[l−1] ~ 0: annihilate e[l] with rotations against row
                // l−1, accumulated into U.
                ws.cs.clear();
                ws.sn.clear();
                let first = l;
                let mut c = 0.0f64;
                let mut s = 1.0f64;
                for i in l..=k {
                    let f = s * ws.e[i];
                    ws.e[i] *= c;
                    if f.abs() <= tiny {
                        break;
                    }
                    let g = ws.d[i];
                    let h = f.hypot(g);
                    ws.d[i] = h;
                    c = g / h;
                    s = -f / h;
                    ws.cs.push(c);
                    ws.sn.push(s);
                }
                // Deferred application: pairs (l−1, i) for consecutive i
                // from `first`, as row pairs of the transposed U.
                for (idx, (&c, &s)) in ws.cs.iter().zip(ws.sn.iter()).enumerate() {
                    rot_rows(ut, l - 1, first + idx, c, s);
                }
            }
            let z = ws.d[k];
            if l == k {
                if z < 0.0 {
                    ws.d[k] = -z;
                    for x in vt.row_mut(k).iter_mut() {
                        *x = -*x;
                    }
                }
                break;
            }
            its += 1;
            if its > MAX_SHIFT_ITERS {
                return Err(LinalgError::NoConvergence {
                    op: "svd (implicit-shift bidiagonal QR)",
                    iterations: MAX_SHIFT_ITERS,
                });
            }
            // Wilkinson-style shift from the trailing 2x2 of BᵀB.
            let x = ws.d[l];
            let nm = k - 1;
            let y = ws.d[nm];
            let mut g = ws.e[nm];
            let mut h = ws.e[k];
            let mut f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2.0 * h * y);
            g = f.hypot(1.0);
            let sg = if f >= 0.0 { g.abs() } else { -g.abs() };
            f = ((x - z) * (x + z) + h * (y / (f + sg) - h)) / x;
            // Chase the bulge; defer the U/V rotations for row sweeps.
            ws.cs.clear();
            ws.sn.clear();
            ws.cs2.clear();
            ws.sn2.clear();
            let mut c = 1.0f64;
            let mut s = 1.0f64;
            let mut x = x;
            for j in l..=nm {
                let i = j + 1;
                g = ws.e[i];
                let mut y = ws.d[i];
                h = s * g;
                g *= c;
                let mut zr = f.hypot(h);
                ws.e[j] = zr;
                c = f / zr;
                s = h / zr;
                f = x * c + g * s;
                g = g * c - x * s;
                h = y * s;
                y *= c;
                ws.cs.push(c);
                ws.sn.push(s);
                zr = f.hypot(h);
                ws.d[j] = zr;
                if zr != 0.0 {
                    c = f / zr;
                    s = h / zr;
                }
                f = c * g + s * y;
                x = c * y - s * g;
                ws.cs2.push(c);
                ws.sn2.push(s);
            }
            ws.e[l] = 0.0;
            ws.e[k] = f;
            ws.d[k] = x;
            // Deferred rotation application: V takes the (cs, sn) stream,
            // U the (cs2, sn2) stream, pairs (j, j+1) for j = l..=nm, each
            // an elementwise pass over two rows of the transpose.
            for (idx, j) in (l..=nm).enumerate() {
                rot_rows(vt, j, j + 1, ws.cs[idx], ws.sn[idx]);
            }
            for (idx, j) in (l..=nm).enumerate() {
                rot_rows(ut, j, j + 1, ws.cs2[idx], ws.sn2[idx]);
            }
        }
    }
    transpose_into(ut, u);
    transpose_into(vt, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
        Matrix::from_fn(r, c, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0 - 2.0
        })
    }

    /// Runs the bidiagonalization phase alone (the [`svd_core`] setup
    /// followed by either the dispatching [`bidiagonalize`] or the
    /// streamed reference end to end) and returns `(d, e, vl, vr)`.
    fn bidiag_outputs(a: &Matrix, streamed_only: bool) -> (Vec<f64>, Vec<f64>, Matrix, Matrix) {
        let (m, n) = a.shape();
        let mut ws = FactorWorkspace::new();
        ws.work.reset_shape(m, n);
        ws.work.as_mut_slice().copy_from_slice(a.as_slice());
        ws.vl.reset_shape(m, n);
        ws.vl_n2.resize(n, 0.0);
        ws.vr.reset_shape(n, n);
        ws.vr_n2.resize(n, 0.0);
        ws.d.resize(n, 0.0);
        ws.e.resize(n, 0.0);
        ws.small.resize(n, 0.0);
        if streamed_only {
            bidiagonalize_streamed(&mut ws, m, n, 0);
        } else {
            bidiagonalize(&mut ws, m, n);
        }
        (ws.d, ws.e, ws.vl, ws.vr)
    }

    #[test]
    fn single_panel_bidiagonalization_is_bitwise_streamed() {
        // n <= PANEL dispatches to the streamed reference end to end, so
        // every output — diagonals and reflectors — is bitwise equal.
        for &(m, n) in &[(PANEL, PANEL), (80, PANEL), (60, 17), (45, 1)] {
            let a = det_matrix(m, n, (m * 13 + n) as u64);
            let (d_p, e_p, vl_p, vr_p) = bidiag_outputs(&a, false);
            let (d_s, e_s, vl_s, vr_s) = bidiag_outputs(&a, true);
            assert_eq!(d_p, d_s, "d not bitwise for {m}x{n}");
            assert_eq!(e_p, e_s, "e not bitwise for {m}x{n}");
            assert_eq!(vl_p.as_slice(), vl_s.as_slice(), "vl {m}x{n}");
            assert_eq!(vr_p.as_slice(), vr_s.as_slice(), "vr {m}x{n}");
        }
    }

    #[test]
    fn panel_bidiagonalization_matches_streamed_across_panels() {
        // Multi-panel shapes: the dlabrd panel path reorders the update
        // arithmetic (deferred GEMMs instead of streamed rank-1s), so the
        // bidiagonal must agree to rounding — 1e-9 relative — but not
        // bitwise.
        for &(m, n) in &[
            (PANEL + 1, PANEL + 1),
            (100, 80),
            (90, 90),
            (PANEL * 3 + 5, PANEL * 2 + 3),
            (150, PANEL + 1),
        ] {
            let a = det_matrix(m, n, (m * 17 + n) as u64);
            let (d_p, e_p, _, _) = bidiag_outputs(&a, false);
            let (d_s, e_s, _, _) = bidiag_outputs(&a, true);
            let anorm = d_s
                .iter()
                .chain(e_s.iter())
                .fold(0.0f64, |acc, &x| acc.max(x.abs()));
            for i in 0..n {
                assert!(
                    (d_p[i] - d_s[i]).abs() <= 1e-9 * anorm,
                    "{m}x{n}: d[{i}] panel {} vs streamed {}",
                    d_p[i],
                    d_s[i]
                );
                assert!(
                    (e_p[i] - e_s[i]).abs() <= 1e-9 * anorm,
                    "{m}x{n}: e[{i}] panel {} vs streamed {}",
                    e_p[i],
                    e_s[i]
                );
            }
        }
    }

    /// The blocked factorizations are bit-identical at any thread budget:
    /// their panel updates are ordinary kernel-layer GEMMs, whose row
    /// bands are numerically independent. The shape is large enough that
    /// the trailing-update GEMMs cross the kernel layer's fan-out gate.
    #[test]
    fn parallel_factorizations_are_bit_identical() {
        let a = det_matrix(1024, 400, 77);
        let run = |workers| {
            kernels::with_budget(workers, || {
                (crate::qr::qr(&a).unwrap(), crate::svd::svd(&a).unwrap())
            })
        };
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (qr_seq, svd_seq) = run(1);
        for workers in [2, 4, 7] {
            let (qr_par, svd_par) = run(workers);
            assert_eq!(bits(&qr_par.q), bits(&qr_seq.q), "{workers} workers: Q");
            assert_eq!(bits(&qr_par.r), bits(&qr_seq.r), "{workers} workers: R");
            assert_eq!(bits(&svd_par.u), bits(&svd_seq.u), "{workers} workers: U");
            assert_eq!(bits(&svd_par.v), bits(&svd_seq.v), "{workers} workers: V");
            let sv = |s: &Svd| {
                s.singular_values
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(sv(&svd_par), sv(&svd_seq), "{workers} workers: Σ");
        }
    }
}
