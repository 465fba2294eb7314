//! Cache-blocked, register-tiled GEMM drivers — the kernel layer every
//! matrix product in the workspace runs on.
//!
//! # Architecture
//!
//! The drivers follow the classic three-loop blocking scheme (Goto/BLIS):
//!
//! * the **k** dimension is split into panels of [`KC`] so one packed slice
//!   of each operand stays resident in L1/L2 across the inner loops,
//! * the **n** dimension is split into slabs of [`NC`] columns,
//! * the **m** dimension is split into bands of [`MC`] rows,
//! * inside a band, an [`MR`]`x`[`NR`] **micro-kernel** accumulates a
//!   register tile over the packed panels with fused multiply-adds; the
//!   `MR`-way row reuse cuts B-panel bandwidth by `MR` compared to the
//!   seed's row-streaming `ikj` loop.
//!
//! Operands are **packed** into contiguous panels before the micro-kernel
//! runs, which is also how the transposed variants (`AᵀB`, `ABᵀ`) reuse the
//! same micro-kernel: transposition happens for free during packing. Packing
//! buffers live in thread-local storage and are reused across calls, so the
//! steady state performs **no heap allocation** — the property the
//! allocation-free NMF/ALS iteration loops in `ides-mf` build on.
//!
//! Packing pays only when a packed panel is reused many times, and for a
//! narrow product it is not. So one shape takes a second, **unpacked
//! driver**: `A · B` (both `NoTrans`) with `n ≤ 16`, at any `k` — the host
//! join's `k × d` product (`k = 64`, `d = 16` when serving), the skinny
//! `m × d` products of the factorizations, and NMF's `D · Y` and
//! `(Dᵀ) · X` (`k = 1024` on the paper's matrix). It reads `A` in place
//! (row stride `lda`) and `B` unpacked (8 KiB at `k = 64`, 20 KiB per
//! `KC` panel at `n = 10`, so a panel stays in L1), keeps an `8 × n`
//! accumulator tile in registers across one `KC` panel, software-
//! prefetches the next 8 rows of `A`, and stores the finished tile
//! straight into `out` — or, for `k > KC`, adds each panel's tile into
//! `out` in ascending panel order, as the packed driver does. The last
//! `m mod 8` rows, and a lone join's single row, run the same vector tile
//! with fewer rows. The shape alone picks the driver; there is nothing to
//! set.
//!
//! # Micro-kernel back ends and runtime dispatch
//!
//! The micro-kernels and the vector primitives ([`dot`], [`axpy_with_isa`],
//! [`gemv`], [`gemv_t`]) have three interchangeable back ends, one per
//! [`Isa`]:
//!
//! | detected ISA  | packed 8×8 tile                   | unpacked `≤ 8 × 16` tile            |
//! |---------------|-----------------------------------|-------------------------------------|
//! | AVX-512F      | one `zmm` accumulator per row     | two `zmm` per row, last one masked  |
//! | AVX2 + FMA    | two 4-row halves, `ymm` pairs     | 4-row × 8-column sub-tiles, masked  |
//! | anything else | portable `f64::mul_add` tile      | portable `f64::mul_add` tile        |
//!
//! The back end is chosen **once per process** (`std::sync::OnceLock`) by
//! `is_x86_feature_detected!`, so binaries built with the (default-on)
//! `simd` cargo feature run correctly on any x86-64 host — no reliance on
//! compile-time `target-cpu` flags. Setting `IDES_LINALG_KERNEL` to
//! `scalar`, `avx2`, or `avx512` forces a back end (requests the CPU cannot
//! honor fall back to auto-detection); building with
//! `--no-default-features` compiles the intrinsics out entirely. On
//! non-x86-64 targets the scalar tile is always used, and `f64::mul_add`
//! lowers to the native FMA instruction wherever one exists.
//!
//! # Determinism
//!
//! For every output cell the contributions are accumulated in ascending-`k`
//! order within each `KC` panel, and panels are added in ascending order,
//! so results are **bit-identical across runs, block sizes permitting**,
//! and — because row bands are numerically independent — bit-identical with
//! the `parallel` feature on or off. Every back end performs the *same*
//! exactly-rounded fused multiply-add per element in the *same* order
//! (`f64::mul_add` ≡ `vfmadd`), so results are also **bit-identical across
//! ISAs**: scalar, AVX2, and AVX-512 kernels agree bitwise, which keeps
//! every factorization built on this layer independent of the host CPU.
//! For `k <= KC` the result is bitwise equal to a textbook ascending-`k`
//! fused dot product ([`reference::matmul_fused`]).
//!
//! That is why the unpacked driver may take its shape without changing a
//! bit: for `k <= KC` the packed driver computes each element as one
//! ascending-`k` fused chain starting from `+0.0`, and so does the unpacked
//! tile, on every back end. (The one difference is the sign of an
//! underflowed zero: the packed driver adds its tile into a zeroed `out`,
//! turning `-0.0` into `+0.0`; the unpacked tile stores `-0.0`, as the
//! textbook loop does.) For `k > KC` the packed driver adds one chain per
//! panel into a zeroed `out`, and the unpacked driver does the same: one
//! chain per `KC` panel, summed as `((0.0 + t₀) + t₁) + …`, so there the
//! two agree to the last bit, the sign of zero included.
//!
//! # `parallel` feature
//!
//! With the (default-off) `parallel` cargo feature, products large enough
//! to amortize thread startup are split into row bands executed on std
//! scoped threads (one per available core, capped by band count). Each band
//! writes a disjoint slice of the output, so no synchronization is needed
//! and results do not change: all threads use the one process-wide ISA.

use std::cell::RefCell;
use std::sync::OnceLock;

/// Micro-kernel tile rows (accumulator rows held in registers).
pub const MR: usize = 8;
/// Micro-kernel tile columns (one `zmm` / two `ymm` vectors of `f64`).
pub const NR: usize = 8;
/// Row-band blocking: rows of A packed per macro iteration.
pub const MC: usize = 128;
/// Depth blocking: the shared dimension is processed in panels of `KC`.
pub const KC: usize = 256;
/// Column-slab blocking: columns of B packed per macro iteration.
pub const NC: usize = 1024;
/// Widest product the unpacked driver takes: two `zmm` (four `ymm`) of
/// `f64` per accumulator row.
const NARROW_N: usize = 16;

/// Reusable packing buffers (thread-local; see [`with_buffers`]).
#[derive(Default)]
struct Buffers {
    a_panel: Vec<f64>,
    b_panel: Vec<f64>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// A micro-kernel / vector-primitive back end. All variants produce
/// bit-identical results; they differ only in speed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// Portable fused tile built on `f64::mul_add` — the universal
    /// fallback, and the only back end compiled without the `simd` feature.
    Scalar,
    /// 256-bit AVX2+FMA kernels (x86-64 with the `simd` feature).
    Avx2Fma,
    /// 512-bit AVX-512F kernels (x86-64 with the `simd` feature).
    Avx512,
}

static ACTIVE_ISA: OnceLock<Isa> = OnceLock::new();

/// The back end every kernel entry point dispatches to, chosen once per
/// process: the `IDES_LINALG_KERNEL` env var (`scalar` / `avx2` /
/// `avx512`) if set and supported, otherwise the widest ISA the CPU
/// reports. Without the `simd` feature this is always [`Isa::Scalar`].
pub fn active_isa() -> Isa {
    *ACTIVE_ISA.get_or_init(|| {
        let forced = std::env::var("IDES_LINALG_KERNEL").ok();
        select_isa(forced.as_deref())
    })
}

/// Resolves a forced-kernel request against what the CPU supports.
fn select_isa(forced: Option<&str>) -> Isa {
    let isas = available_isas();
    match forced {
        Some("scalar") => Isa::Scalar,
        Some("avx2") if isas.contains(&Isa::Avx2Fma) => Isa::Avx2Fma,
        Some("avx512") if isas.contains(&Isa::Avx512) => Isa::Avx512,
        // Unknown or unsupported requests fall back to auto-detection.
        _ => *isas.last().expect("Scalar is always available"),
    }
}

/// Every back end this build + CPU can run, narrowest first (so the last
/// element is the auto-detected choice). Used by the bitwise-identity test
/// suite to exercise each compiled kernel regardless of dispatch.
pub fn available_isas() -> Vec<Isa> {
    #[allow(unused_mut)]
    let mut isas = vec![Isa::Scalar];
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            isas.push(Isa::Avx2Fma);
        }
        if is_x86_feature_detected!("avx512f") {
            isas.push(Isa::Avx512);
        }
    }
    isas
}

/// How a packed operand is read out of its backing row-major storage.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the operand transposed.
    Trans,
}

/// Computes `out = op(A) * op(B)` into a preallocated row-major `out`.
///
/// * `a` is `m x k` after `a_op` is applied; its physical row stride is
///   `lda` (the stored matrix's column count). Likewise for `b`/`ldb`.
/// * `out` must have exactly `m * n` elements and is fully overwritten.
///
/// # Panics
/// If `out` is not `m * n` long, or `a` / `b` end before the last element
/// of `op(A)` / `op(B)` — checked in release builds too.
///
/// This is the single entry point behind `Matrix::{matmul, tr_matmul,
/// matmul_tr}` and their `_into` variants.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a: &[f64],
    a_op: Op,
    lda: usize,
    b: &[f64],
    b_op: Op,
    ldb: usize,
    out: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    check_extents(a, a_op, lda, b, b_op, ldb, out, m, n, k);
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    let isa = active_isa();

    // Only products with substantial per-band work consider fanning out;
    // the size gate comes first so small products (the NMF/ALS inner-loop
    // common case) skip the env lookup entirely and stay allocation-free.
    #[cfg(feature = "parallel")]
    if m >= 2 * MC && m * n * k >= 1 << 23 {
        // `IDES_LINALG_THREADS` overrides the detected core count (useful
        // for pinning bench configurations and for testing the parallel
        // path on single-core machines).
        let threads = std::env::var("IDES_LINALG_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|t| t.get())
                    .unwrap_or(1)
            });
        if threads > 1 {
            let bands = threads.min(m.div_ceil(MC));
            let rows_per_band = m.div_ceil(bands).div_ceil(MR) * MR;
            std::thread::scope(|scope| {
                let mut rest = out;
                let mut row0 = 0usize;
                while row0 < m {
                    let rows = rows_per_band.min(m - row0);
                    let (band, tail) = rest.split_at_mut(rows * n);
                    rest = tail;
                    let r0 = row0;
                    scope.spawn(move || {
                        let mut bufs = Buffers::default();
                        gemm_serial(
                            isa, a, a_op, lda, b, b_op, ldb, band, r0, rows, n, k, &mut bufs,
                        );
                    });
                    row0 += rows;
                }
            });
            return;
        }
    }

    BUFFERS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        gemm_serial(isa, a, a_op, lda, b, b_op, ldb, out, 0, m, n, k, &mut bufs);
    });
}

/// [`gemm`] pinned to one back end, always sequential. This is the hook
/// the bitwise-identity tests and the `blocked_scalar` benchmark use to
/// compare kernels on the same host without re-dispatching.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_isa(
    isa: Isa,
    a: &[f64],
    a_op: Op,
    lda: usize,
    b: &[f64],
    b_op: Op,
    ldb: usize,
    out: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    check_extents(a, a_op, lda, b, b_op, ldb, out, m, n, k);
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    BUFFERS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        gemm_serial(isa, a, a_op, lda, b, b_op, ldb, out, 0, m, n, k, &mut bufs);
    });
}

/// Panics unless `out` holds exactly `m * n` elements and `a` / `b` reach
/// the last element of `op(A)` (`m × k`) / `op(B)` (`k × n`) at their row
/// strides. The unpacked driver reads both through raw pointers, so this
/// is an `assert!`, not a `debug_assert!`.
#[allow(clippy::too_many_arguments)]
fn check_extents(
    a: &[f64],
    a_op: Op,
    lda: usize,
    b: &[f64],
    b_op: Op,
    ldb: usize,
    out: &[f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert!(
        m.checked_mul(n) == Some(out.len()),
        "gemm: out holds {} values, not {m} x {n}",
        out.len()
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let stored = |op, rows, cols| match op {
        Op::NoTrans => (rows, cols),
        Op::Trans => (cols, rows),
    };
    let (rows, cols) = stored(a_op, m, k);
    assert!(
        a.len() >= span(rows, cols, lda),
        "gemm: a holds {} values, short of {rows} rows x {cols} at stride {lda}",
        a.len()
    );
    let (rows, cols) = stored(b_op, k, n);
    assert!(
        b.len() >= span(rows, cols, ldb),
        "gemm: b holds {} values, short of {rows} rows x {cols} at stride {ldb}",
        b.len()
    );
}

/// Elements from the first through the last of a row-major `rows × cols`
/// view (`rows, cols ≥ 1`) with row stride `ld`: `(rows − 1)·ld + cols`.
fn span(rows: usize, cols: usize, ld: usize) -> usize {
    (rows - 1)
        .checked_mul(ld)
        .and_then(|s| s.checked_add(cols))
        .expect("gemm: operand extent overflows usize")
}

/// Sequential GEMM over the row band `[row0, row0 + rows)`: the unpacked
/// driver ([`gemm_narrow`]) for its shape, the packed blocked driver for
/// every other. `out_band` covers exactly those rows (row stride `n`).
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    isa: Isa,
    a: &[f64],
    a_op: Op,
    lda: usize,
    b: &[f64],
    b_op: Op,
    ldb: usize,
    out_band: &mut [f64],
    row0: usize,
    rows: usize,
    n: usize,
    k: usize,
    bufs: &mut Buffers,
) {
    if a_op == Op::NoTrans && b_op == Op::NoTrans && n <= NARROW_N {
        return gemm_narrow(isa, &a[row0 * lda..], lda, b, ldb, out_band, rows, n, k);
    }
    out_band.fill(0.0);
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let nr_blocks = nc.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, b_op, ldb, jc, nc, pc, kc, &mut bufs.b_panel);
            let mut ic = 0;
            while ic < rows {
                let mc = MC.min(rows - ic);
                let mr_blocks = mc.div_ceil(MR);
                pack_a(a, a_op, lda, row0 + ic, mc, pc, kc, &mut bufs.a_panel);
                for jr in 0..nr_blocks {
                    let b_tile = &bufs.b_panel[jr * kc * NR..(jr + 1) * kc * NR];
                    for ir in 0..mr_blocks {
                        let a_tile = &bufs.a_panel[ir * kc * MR..(ir + 1) * kc * MR];
                        let mut acc = [[0.0f64; NR]; MR];
                        micro_kernel(isa, a_tile, b_tile, kc, &mut acc);
                        write_back(
                            out_band,
                            n,
                            ic + ir * MR,
                            MR.min(mc - ir * MR),
                            jc + jr * NR,
                            NR.min(nc - jr * NR),
                            &acc,
                        );
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// The unpacked driver: `out = A · B` for `1 ≤ n ≤ NARROW_N`, `k ≥ 1`,
/// `m ≥ 1`, with `A` read in place at row stride `lda` and `B` at `ldb`.
/// Each block of up to [`MR`] rows is one register tile per `KC` panel,
/// accumulated over the panel from `+0.0`. With one panel the tile is
/// stored into `out`; with more, `out` is zeroed and each panel's tile is
/// added into it in ascending order — the packed driver's exact sequence
/// of roundings, down to the sign of a zero.
#[allow(clippy::too_many_arguments)]
fn gemm_narrow(
    isa: Isa,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    // Slicing here bounds every tile's operands, so the vector tiles'
    // pointer reads stay inside them (checked in release builds too).
    let b = &b[..span(k, n, ldb)];
    for (i0, out) in (0..m).step_by(MR).zip(out[..m * n].chunks_mut(MR * n)) {
        let rows = MR.min(m - i0);
        let a = &a[i0 * lda..][..span(rows, k, lda)];
        if k <= KC {
            narrow_tile(isa, a, lda, b, ldb, out, rows, n, k);
            continue;
        }
        out.fill(0.0);
        let mut panel = [0.0f64; MR * NARROW_N];
        let panel = &mut panel[..rows * n];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            narrow_tile(isa, &a[pc..], lda, &b[pc * ldb..], ldb, panel, rows, n, kc);
            for (o, &t) in out.iter_mut().zip(panel.iter()) {
                *o += t;
            }
        }
    }
}

/// One unpacked register tile on the selected back end: `out` (row stride
/// `n`) gets the `rows × n` product of `rows` rows of `k` values of `a` and
/// `k` rows of `n` values of `b`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn narrow_tile(
    isa: Isa,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
) {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `isa` only holds these variants when `available_isas`
        // reported the feature. `a` starts a `rows × k` block at stride
        // `lda` and `b` a `k × n` block at stride `ldb`, both inside the
        // extents `gemm_narrow` sliced; `out` holds `rows × n` values;
        // `1 ≤ rows ≤ MR` and `1 ≤ n ≤ NARROW_N`.
        #[allow(unsafe_code)]
        Isa::Avx2Fma => unsafe { x86::narrow_avx2(a, lda, b, ldb, out, rows, n, k) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        Isa::Avx512 => unsafe { x86::narrow_avx512(a, lda, b, ldb, out, rows, n, k) },
        _ => narrow_scalar(a, lda, b, ldb, out, rows, n, k),
    }
}

/// The portable unpacked tile: `rows ≤ MR` rows of `A` against all of `B`,
/// one `f64::mul_add` chain per output element in ascending `k`.
#[allow(clippy::too_many_arguments)]
fn narrow_scalar(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
) {
    let mut acc = [[0.0f64; NARROW_N]; MR];
    for p in 0..k {
        let b_row = &b[p * ldb..][..n];
        for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
            let ar = a[r * lda + p];
            for (c, &bv) in acc_row.iter_mut().zip(b_row) {
                *c = ar.mul_add(bv, *c);
            }
        }
    }
    for (dst, acc_row) in out.chunks_exact_mut(n).zip(&acc) {
        dst.copy_from_slice(&acc_row[..n]);
    }
}

/// Dispatches one register tile to the selected back end.
#[inline(always)]
fn micro_kernel(isa: Isa, a_tile: &[f64], b_tile: &[f64], kc: usize, acc: &mut [[f64; NR]; MR]) {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `isa` only holds these variants when `available_isas`
        // (i.e. `is_x86_feature_detected!`) reported the feature.
        #[allow(unsafe_code)]
        Isa::Avx2Fma => unsafe { x86::micro_kernel_avx2(a_tile, b_tile, kc, acc) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        Isa::Avx512 => unsafe { x86::micro_kernel_avx512(a_tile, b_tile, kc, acc) },
        _ => micro_kernel_scalar(a_tile, b_tile, kc, acc),
    }
}

/// The portable register-tiled inner product: `acc += A_tile * B_tile`
/// over `kc` steps via `f64::mul_add`. Panels are packed `MR`/`NR`-
/// interleaved so every load is contiguous. Because `mul_add` is the
/// exactly-rounded fused operation, this tile is bit-identical to the
/// AVX2/AVX-512 kernels (same per-element operation, same order).
#[inline(always)]
fn micro_kernel_scalar(a_tile: &[f64], b_tile: &[f64], kc: usize, acc: &mut [[f64; NR]; MR]) {
    let a_it = a_tile[..kc * MR].chunks_exact(MR);
    let b_it = b_tile[..kc * NR].chunks_exact(NR);
    for (a_frag, b_frag) in a_it.zip(b_it) {
        // Fixed-size views let the compiler drop every bounds check and
        // keep the whole tile in registers.
        let a_frag: &[f64; MR] = a_frag.try_into().expect("chunk size is MR");
        let b_frag: &[f64; NR] = b_frag.try_into().expect("chunk size is NR");
        for (row, &am) in acc.iter_mut().zip(a_frag.iter()) {
            for (c, &bv) in row.iter_mut().zip(b_frag.iter()) {
                *c = am.mul_add(bv, *c);
            }
        }
    }
}

/// AVX2+FMA / AVX-512F intrinsics back ends. The only `unsafe` in the
/// crate lives here; every function requires its ISA at runtime (upheld by
/// dispatching through [`active_isa`] / [`available_isas`]) and computes
/// exactly the same fused operations in the same order as the scalar
/// fallbacks, so results are bitwise interchangeable.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod x86 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// 8×8 AVX-512 micro-kernel: one `zmm` accumulator per tile row — 8
    /// independent FMA chains, enough to hide FMA latency on 2-port cores.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_kernel_avx512(
        a_tile: &[f64],
        b_tile: &[f64],
        kc: usize,
        acc: &mut [[f64; NR]; MR],
    ) {
        debug_assert!(a_tile.len() >= kc * MR && b_tile.len() >= kc * NR);
        let mut c0 = _mm512_loadu_pd(acc[0].as_ptr());
        let mut c1 = _mm512_loadu_pd(acc[1].as_ptr());
        let mut c2 = _mm512_loadu_pd(acc[2].as_ptr());
        let mut c3 = _mm512_loadu_pd(acc[3].as_ptr());
        let mut c4 = _mm512_loadu_pd(acc[4].as_ptr());
        let mut c5 = _mm512_loadu_pd(acc[5].as_ptr());
        let mut c6 = _mm512_loadu_pd(acc[6].as_ptr());
        let mut c7 = _mm512_loadu_pd(acc[7].as_ptr());
        let mut ap = a_tile.as_ptr();
        let mut bp = b_tile.as_ptr();
        for _ in 0..kc {
            let bv = _mm512_loadu_pd(bp);
            c0 = _mm512_fmadd_pd(_mm512_set1_pd(*ap), bv, c0);
            c1 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(1)), bv, c1);
            c2 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(2)), bv, c2);
            c3 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(3)), bv, c3);
            c4 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(4)), bv, c4);
            c5 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(5)), bv, c5);
            c6 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(6)), bv, c6);
            c7 = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(7)), bv, c7);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        _mm512_storeu_pd(acc[0].as_mut_ptr(), c0);
        _mm512_storeu_pd(acc[1].as_mut_ptr(), c1);
        _mm512_storeu_pd(acc[2].as_mut_ptr(), c2);
        _mm512_storeu_pd(acc[3].as_mut_ptr(), c3);
        _mm512_storeu_pd(acc[4].as_mut_ptr(), c4);
        _mm512_storeu_pd(acc[5].as_mut_ptr(), c5);
        _mm512_storeu_pd(acc[6].as_mut_ptr(), c6);
        _mm512_storeu_pd(acc[7].as_mut_ptr(), c7);
    }

    /// 8×8 AVX2+FMA micro-kernel, processed as two sequential 4-row
    /// halves (4 rows × 2 `ymm` accumulators fit the 16-register file;
    /// the B tile is L1-resident so the second pass re-reads it cheaply).
    /// Per-element accumulation order is unchanged: each output element
    /// still sees its `k` contributions in ascending order.
    ///
    /// # Safety
    /// Requires AVX2 and FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_kernel_avx2(
        a_tile: &[f64],
        b_tile: &[f64],
        kc: usize,
        acc: &mut [[f64; NR]; MR],
    ) {
        debug_assert!(a_tile.len() >= kc * MR && b_tile.len() >= kc * NR);
        for half in 0..2 {
            let r0 = half * 4;
            let mut c0l = _mm256_loadu_pd(acc[r0].as_ptr());
            let mut c0h = _mm256_loadu_pd(acc[r0].as_ptr().add(4));
            let mut c1l = _mm256_loadu_pd(acc[r0 + 1].as_ptr());
            let mut c1h = _mm256_loadu_pd(acc[r0 + 1].as_ptr().add(4));
            let mut c2l = _mm256_loadu_pd(acc[r0 + 2].as_ptr());
            let mut c2h = _mm256_loadu_pd(acc[r0 + 2].as_ptr().add(4));
            let mut c3l = _mm256_loadu_pd(acc[r0 + 3].as_ptr());
            let mut c3h = _mm256_loadu_pd(acc[r0 + 3].as_ptr().add(4));
            let mut ap = a_tile.as_ptr().add(r0);
            let mut bp = b_tile.as_ptr();
            for _ in 0..kc {
                let b_lo = _mm256_loadu_pd(bp);
                let b_hi = _mm256_loadu_pd(bp.add(4));
                let a0 = _mm256_set1_pd(*ap);
                c0l = _mm256_fmadd_pd(a0, b_lo, c0l);
                c0h = _mm256_fmadd_pd(a0, b_hi, c0h);
                let a1 = _mm256_set1_pd(*ap.add(1));
                c1l = _mm256_fmadd_pd(a1, b_lo, c1l);
                c1h = _mm256_fmadd_pd(a1, b_hi, c1h);
                let a2 = _mm256_set1_pd(*ap.add(2));
                c2l = _mm256_fmadd_pd(a2, b_lo, c2l);
                c2h = _mm256_fmadd_pd(a2, b_hi, c2h);
                let a3 = _mm256_set1_pd(*ap.add(3));
                c3l = _mm256_fmadd_pd(a3, b_lo, c3l);
                c3h = _mm256_fmadd_pd(a3, b_hi, c3h);
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            _mm256_storeu_pd(acc[r0].as_mut_ptr(), c0l);
            _mm256_storeu_pd(acc[r0].as_mut_ptr().add(4), c0h);
            _mm256_storeu_pd(acc[r0 + 1].as_mut_ptr(), c1l);
            _mm256_storeu_pd(acc[r0 + 1].as_mut_ptr().add(4), c1h);
            _mm256_storeu_pd(acc[r0 + 2].as_mut_ptr(), c2l);
            _mm256_storeu_pd(acc[r0 + 2].as_mut_ptr().add(4), c2h);
            _mm256_storeu_pd(acc[r0 + 3].as_mut_ptr(), c3l);
            _mm256_storeu_pd(acc[r0 + 3].as_mut_ptr().add(4), c3h);
        }
    }

    /// Calls `$tile::<R, V>$args` with the runtime row count `$rows` turned
    /// into the constant `R`, one arm per listed count, so each tile's
    /// `[[_; V]; R]` accumulator array is fixed-size and stays in registers.
    macro_rules! with_rows {
        ($rows:expr, [$($r:literal)+], $tile:ident::<_, $v:literal>$args:tt) => {
            match $rows {
                $($r => $tile::<$r, $v>$args,)+
                _ => unreachable!("a narrow tile has 1..=MR rows"),
            }
        };
    }

    /// AVX-512 unpacked tile ([`super::gemm_narrow`]): `rows × n` outputs,
    /// each row two `zmm` accumulators (one when `n ≤ 8`).
    ///
    /// # Safety
    /// Requires AVX-512F at runtime, `1 ≤ rows ≤ MR`, `1 ≤ n ≤ 16`,
    /// `k ≥ 1`, `a.len() ≥ (rows − 1)·lda + k`, `b.len() ≥ (k − 1)·ldb + n`
    /// and `out.len() ≥ rows·n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn narrow_avx512(
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        out: &mut [f64],
        rows: usize,
        n: usize,
        k: usize,
    ) {
        debug_assert!((1..=MR).contains(&rows) && (1..=16).contains(&n) && k >= 1);
        debug_assert!(a.len() > (rows - 1) * lda + k - 1 && b.len() > (k - 1) * ldb + n - 1);
        debug_assert!(out.len() >= rows * n);
        let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        if n > 8 {
            with_rows!(rows, [1 2 3 4 5 6 7 8], tile_avx512::<_, 2>(a, lda, b, ldb, out, n, k))
        } else {
            with_rows!(rows, [1 2 3 4 5 6 7 8], tile_avx512::<_, 1>(a, lda, b, ldb, out, n, k))
        }
    }

    /// One `R`-row tile of [`narrow_avx512`] over `V` column vectors, the
    /// last masked to the `n − 8·(V − 1)` live columns. Prefetches the
    /// next [`MR`]-row block of `A` one cache line per row every 8 steps.
    ///
    /// # Safety
    /// As [`narrow_avx512`] with `rows = R`, and `8·(V − 1) < n ≤ 8·V`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_avx512<const R: usize, const V: usize>(
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        out: *mut f64,
        n: usize,
        k: usize,
    ) {
        let last: __mmask8 = 0xFF >> (8 * V - n);
        // `wrapping_add`: past the last block this leaves the allocation,
        // which a prefetch may point at but `add` may not.
        let next = a.wrapping_add(MR * lda);
        let mut acc = [[_mm512_setzero_pd(); V]; R];
        for p in 0..k {
            let b_row = b.add(p * ldb);
            let mut bv = [_mm512_setzero_pd(); V];
            for (v, bv) in bv.iter_mut().enumerate() {
                *bv = if v + 1 < V {
                    _mm512_loadu_pd(b_row.add(8 * v))
                } else {
                    _mm512_maskz_loadu_pd(last, b_row.add(8 * v))
                };
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let ar = _mm512_set1_pd(*a.add(r * lda + p));
                for (c, &bv) in acc_row.iter_mut().zip(&bv) {
                    *c = _mm512_fmadd_pd(ar, bv, *c);
                }
            }
            if p % 8 == 0 {
                for r in 0..R {
                    _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(r * lda + p).cast());
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let o = out.add(r * n);
            for (v, &c) in acc_row.iter().enumerate() {
                if v + 1 < V {
                    _mm512_storeu_pd(o.add(8 * v), c);
                } else {
                    _mm512_mask_storeu_pd(o.add(8 * v), last, c);
                }
            }
        }
    }

    /// AVX2+FMA unpacked tile ([`super::gemm_narrow`]): the `rows × n`
    /// block as 4-row × 8-column sub-tiles, each two `ymm` accumulators per
    /// row (one when its columns are ≤ 4) — the register budget of
    /// [`micro_kernel_avx2`]. The sub-tiles re-read `A`'s rows from L1.
    ///
    /// # Safety
    /// As [`narrow_avx512`], with AVX2 and FMA in place of AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn narrow_avx2(
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        out: &mut [f64],
        rows: usize,
        n: usize,
        k: usize,
    ) {
        debug_assert!((1..=MR).contains(&rows) && (1..=16).contains(&n) && k >= 1);
        debug_assert!(a.len() > (rows - 1) * lda + k - 1 && b.len() > (k - 1) * ldb + n - 1);
        debug_assert!(out.len() >= rows * n);
        let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        for r0 in (0..rows).step_by(4) {
            let (a, sub_rows) = (a.add(r0 * lda), 4.min(rows - r0));
            for c0 in (0..n).step_by(8) {
                let (b, o, cols) = (b.add(c0), out.add(r0 * n + c0), 8.min(n - c0));
                if cols > 4 {
                    with_rows!(sub_rows, [1 2 3 4], tile_avx2::<_, 2>(a, lda, b, ldb, o, n, cols, k))
                } else {
                    with_rows!(sub_rows, [1 2 3 4], tile_avx2::<_, 1>(a, lda, b, ldb, o, n, cols, k))
                }
            }
        }
    }

    /// One `R`-row (`R ≤ 4`) × `cols`-column (`cols ≤ 8`) sub-tile of
    /// [`narrow_avx2`] over `V` `ymm` vectors, the last masked to the
    /// `cols − 4·(V − 1)` live columns; `ldo` is `out`'s row stride.
    /// Prefetches this sub-tile's rows of the next [`MR`]-row block.
    ///
    /// # Safety
    /// Requires AVX2 and FMA at runtime, `k ≥ 1`, `4·(V − 1) < cols ≤ 4·V`,
    /// and `R` rows of `k` values of `a` at stride `lda`, `k` rows of
    /// `cols` values of `b` at stride `ldb`, and `R` rows of `cols` values
    /// of `out` at stride `ldo`, all in bounds.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_avx2<const R: usize, const V: usize>(
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        out: *mut f64,
        ldo: usize,
        cols: usize,
        k: usize,
    ) {
        let live = (cols - 4 * (V - 1)) as i64;
        let last = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), _mm256_setr_epi64x(0, 1, 2, 3));
        // `wrapping_add`: see `tile_avx512`.
        let next = a.wrapping_add(MR * lda);
        let mut acc = [[_mm256_setzero_pd(); V]; R];
        for p in 0..k {
            let b_row = b.add(p * ldb);
            let mut bv = [_mm256_setzero_pd(); V];
            for (v, bv) in bv.iter_mut().enumerate() {
                *bv = if v + 1 < V {
                    _mm256_loadu_pd(b_row.add(4 * v))
                } else {
                    _mm256_maskload_pd(b_row.add(4 * v), last)
                };
            }
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let ar = _mm256_set1_pd(*a.add(r * lda + p));
                for (c, &bv) in acc_row.iter_mut().zip(&bv) {
                    *c = _mm256_fmadd_pd(ar, bv, *c);
                }
            }
            if p % 8 == 0 {
                for r in 0..R {
                    _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(r * lda + p).cast());
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let o = out.add(r * ldo);
            for (v, &c) in acc_row.iter().enumerate() {
                if v + 1 < V {
                    _mm256_storeu_pd(o.add(4 * v), c);
                } else {
                    _mm256_maskstore_pd(o.add(4 * v), last, c);
                }
            }
        }
    }

    /// AVX-512 [`super::dot`]: lane `i mod 8` partial sums, then the same
    /// fixed reduction tree as the scalar path.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot_avx512(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc = _mm512_setzero_pd();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..chunks {
            acc = _mm512_fmadd_pd(_mm512_loadu_pd(ap), _mm512_loadu_pd(bp), acc);
            ap = ap.add(8);
            bp = bp.add(8);
        }
        // (l0+l4, l1+l5, l2+l6, l3+l7) — identical tree to `dot_scalar`.
        let s = _mm256_add_pd(
            _mm512_castpd512_pd256(acc),
            _mm512_extractf64x4_pd::<1>(acc),
        );
        let t = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd::<1>(s));
        let mut total = _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t));
        for i in chunks * 8..n {
            total = a[i].mul_add(b[i], total);
        }
        total
    }

    /// AVX2+FMA [`super::dot`]: two `ymm` accumulators hold lanes `0..4`
    /// and `4..8`, reduced through the same tree as the scalar path.
    ///
    /// # Safety
    /// Requires AVX2 and FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let chunks = n / 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut ap = a.as_ptr();
        let mut bp = b.as_ptr();
        for _ in 0..chunks {
            acc_lo = _mm256_fmadd_pd(_mm256_loadu_pd(ap), _mm256_loadu_pd(bp), acc_lo);
            acc_hi = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(4)),
                _mm256_loadu_pd(bp.add(4)),
                acc_hi,
            );
            ap = ap.add(8);
            bp = bp.add(8);
        }
        let s = _mm256_add_pd(acc_lo, acc_hi);
        let t = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd::<1>(s));
        let mut total = _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t));
        for i in chunks * 8..n {
            total = a[i].mul_add(b[i], total);
        }
        total
    }

    /// AVX-512 [`super::axpy_with_isa`]: elementwise fused `y[i] += alpha * x[i]`.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let chunks = n / 8;
        let av = _mm512_set1_pd(alpha);
        let mut xp = x.as_ptr();
        let mut yp = y.as_mut_ptr();
        for _ in 0..chunks {
            _mm512_storeu_pd(
                yp,
                _mm512_fmadd_pd(av, _mm512_loadu_pd(xp), _mm512_loadu_pd(yp)),
            );
            xp = xp.add(8);
            yp = yp.add(8);
        }
        for i in chunks * 8..n {
            y[i] = alpha.mul_add(x[i], y[i]);
        }
    }

    /// AVX2+FMA [`super::axpy_with_isa`].
    ///
    /// # Safety
    /// Requires AVX2 and FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let chunks = n / 4;
        let av = _mm256_set1_pd(alpha);
        let mut xp = x.as_ptr();
        let mut yp = y.as_mut_ptr();
        for _ in 0..chunks {
            _mm256_storeu_pd(
                yp,
                _mm256_fmadd_pd(av, _mm256_loadu_pd(xp), _mm256_loadu_pd(yp)),
            );
            xp = xp.add(4);
            yp = yp.add(4);
        }
        for i in chunks * 4..n {
            y[i] = alpha.mul_add(x[i], y[i]);
        }
    }
}

/// Adds a micro tile into the output band, clipping padded rows/columns.
#[inline]
fn write_back(
    out_band: &mut [f64],
    n: usize,
    tile_row: usize,
    tile_rows: usize,
    col0: usize,
    cols: usize,
    acc: &[[f64; NR]; MR],
) {
    for (m, acc_row) in acc.iter().enumerate().take(tile_rows) {
        let row = tile_row + m;
        let dst = &mut out_band[row * n + col0..row * n + col0 + cols];
        for (d, &v) in dst.iter_mut().zip(acc_row.iter()) {
            *d += v;
        }
    }
}

/// Packs the `mc x kc` block of `op(A)` starting at `(ic, pc)` into
/// `MR`-interleaved panels: `panel[ir][kk * MR + m] = a(ic + ir*MR + m,
/// pc + kk)`, zero-padding ragged edges.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f64],
    op: Op,
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    panel: &mut Vec<f64>,
) {
    let mr_blocks = mc.div_ceil(MR);
    panel.clear();
    panel.resize(mr_blocks * kc * MR, 0.0);
    match op {
        Op::NoTrans => {
            // Contiguous reads along each source row, strided panel writes.
            for ir in 0..mr_blocks {
                let rows_here = MR.min(mc - ir * MR);
                let base = ir * kc * MR;
                for m in 0..rows_here {
                    let src = &a[(ic + ir * MR + m) * lda + pc..][..kc];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[base + kk * MR + m] = v;
                    }
                }
            }
        }
        Op::Trans => {
            // a(i, kk) lives at a[(pc + kk) * lda + i]: each k-step reads
            // MR contiguous source values.
            for ir in 0..mr_blocks {
                let rows_here = MR.min(mc - ir * MR);
                let base = ir * kc * MR;
                for kk in 0..kc {
                    let src = &a[(pc + kk) * lda + ic + ir * MR..][..rows_here];
                    panel[base + kk * MR..base + kk * MR + rows_here].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs the `kc x nc` block of `op(B)` starting at `(pc, jc)` into
/// `NR`-interleaved panels: `panel[jr][kk * NR + j] = b(pc + kk, jc +
/// jr*NR + j)`, zero-padding ragged edges.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[f64],
    op: Op,
    ldb: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    panel: &mut Vec<f64>,
) {
    let nr_blocks = nc.div_ceil(NR);
    panel.clear();
    panel.resize(nr_blocks * kc * NR, 0.0);
    match op {
        Op::NoTrans => {
            for jr in 0..nr_blocks {
                let cols_here = NR.min(nc - jr * NR);
                let base = jr * kc * NR;
                for kk in 0..kc {
                    let src = &b[(pc + kk) * ldb + jc + jr * NR..][..cols_here];
                    panel[base + kk * NR..base + kk * NR + cols_here].copy_from_slice(src);
                }
            }
        }
        Op::Trans => {
            // b(kk, j) lives at b[(jc + j) * ldb + pc + kk]: contiguous
            // reads along each source row, strided panel writes.
            for jr in 0..nr_blocks {
                let cols_here = NR.min(nc - jr * NR);
                let base = jr * kc * NR;
                for j in 0..cols_here {
                    let src = &b[(jc + jr * NR + j) * ldb + pc..][..kc];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[base + kk * NR + j] = v;
                    }
                }
            }
        }
    }
}

/// Fused lane-split dot product: eight independent partial sums (lane =
/// index mod 8) break the FMA dependency chain, reduced through a fixed
/// tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` with the remainder folded
/// in source order. Every back end computes this exact sequence of fused
/// operations, so the result is bit-identical across ISAs and runs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_with_isa(active_isa(), a, b)
}

/// [`dot`] pinned to one back end (test/bench hook; same bits regardless).
pub fn dot_with_isa(isa: Isa, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `isa` only holds these variants when the CPU reported
        // the feature (see `available_isas`).
        #[allow(unsafe_code)]
        Isa::Avx2Fma => unsafe { x86::dot_avx2(a, b) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        Isa::Avx512 => unsafe { x86::dot_avx512(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// Portable fused dot with the fixed 8-lane structure (see [`dot`]).
#[inline]
fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut lanes = [0.0f64; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (af, bf) in a_chunks.zip(b_chunks) {
        for ((l, &x), &y) in lanes.iter_mut().zip(af.iter()).zip(bf.iter()) {
            *l = x.mul_add(y, *l);
        }
    }
    let s0 = lanes[0] + lanes[4];
    let s1 = lanes[1] + lanes[5];
    let s2 = lanes[2] + lanes[6];
    let s3 = lanes[3] + lanes[7];
    let mut total = (s0 + s2) + (s1 + s3);
    for (&x, &y) in a_rem.iter().zip(b_rem.iter()) {
        total = x.mul_add(y, total);
    }
    total
}

/// Fused `y[i] += alpha * x[i]` over the common length, on back end `isa`.
/// Elementwise, so bit-identical across back ends by construction.
pub fn axpy_with_isa(isa: Isa, alpha: f64, x: &[f64], y: &mut [f64]) {
    match isa {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `isa` only holds these variants when the CPU reported
        // the feature (see `available_isas`).
        #[allow(unsafe_code)]
        Isa::Avx2Fma => unsafe { x86::axpy_avx2(alpha, x, y) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        Isa::Avx512 => unsafe { x86::axpy_avx512(alpha, x, y) },
        _ => {
            for (yv, &xv) in y.iter_mut().zip(x.iter()) {
                *yv = alpha.mul_add(xv, *yv);
            }
        }
    }
}

/// `out[i] = dot(row_i(A), x)` for a row-major `m x k` matrix, on the
/// fused SIMD dot path.
pub fn gemv(a: &[f64], x: &[f64], out: &mut [f64], m: usize, k: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(out.len(), m);
    let isa = active_isa();
    for (o, row) in out.iter_mut().zip(a.chunks_exact(k.max(1))) {
        *o = dot_with_isa(isa, row, x);
    }
    if k == 0 {
        out.fill(0.0);
    }
}

/// `out = Aᵀ v` for a row-major `m x k` matrix: a fused axpy per row,
/// which streams both the matrix row and the accumulator contiguously.
pub fn gemv_t(a: &[f64], v: &[f64], out: &mut [f64], m: usize, k: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(v.len(), m);
    debug_assert_eq!(out.len(), k);
    out.fill(0.0);
    let isa = active_isa();
    for (&vi, row) in v.iter().zip(a.chunks_exact(k.max(1))) {
        if vi == 0.0 {
            continue;
        }
        axpy_with_isa(isa, vi, row, out);
    }
}

/// Plain reference multiplies used by correctness tests and as benchmark
/// baselines. These are intentionally the "before" implementations —
/// except [`reference::matmul_fused`], the bitwise oracle for the fused
/// kernels.
pub mod reference {
    use crate::error::Result;
    use crate::matrix::Matrix;

    /// Textbook `ijk` triple loop: one dot product per output cell, with a
    /// strided walk down B's columns. The canonical naive baseline.
    pub fn matmul_ijk(a: &Matrix, b: &Matrix) -> Result<Matrix> {
        a.shape_check_matmul(b)?;
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = acc;
            }
        }
        Ok(out)
    }

    /// Textbook triple loop with a **fused** ascending-`k` accumulation
    /// (`f64::mul_add` per contribution). This is the bitwise oracle for
    /// the blocked kernels: for `k <= KC` every kernel back end must
    /// reproduce it exactly, not just approximately.
    pub fn matmul_fused(a: &Matrix, b: &Matrix) -> Result<Matrix> {
        a.shape_check_matmul(b)?;
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc = a[(i, p)].mul_add(b[(p, j)], acc);
                }
                out[(i, j)] = acc;
            }
        }
        Ok(out)
    }

    /// The seed's `ikj` loop: accumulator rows stream contiguously, B rows
    /// stream contiguously, zero `a_ik` entries are skipped. This was
    /// `Matrix::matmul` before the blocked kernel layer landed and is kept
    /// as the honest speedup baseline for the kernels benchmark.
    pub fn matmul_ikj(a: &Matrix, b: &Matrix) -> Result<Matrix> {
        a.shape_check_matmul(b)?;
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (kk, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = b.row(kk);
                let o_row = out.row_mut(i);
                for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += aik * bv;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn det_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
        Matrix::from_fn(r, c, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0 - 2.0
        })
    }

    #[test]
    fn blocked_matches_reference_across_blocking_edges() {
        // Shapes straddling every blocking boundary: micro tile edges,
        // KC/MC/NC boundaries, and far-from-round sizes.
        let shapes = [
            (1, 1, 1),
            (MR, NR, 3),
            (MR + 1, NR + 1, KC + 1),
            (MC + 3, 17, KC - 1),
            (5, NC.min(64) + 5, 9),
            (37, 41, 29),
        ];
        for &(m, n, k) in &shapes {
            let a = det_matrix(m, k, (m * 31 + k) as u64);
            let b = det_matrix(k, n, (k * 17 + n) as u64);
            let fast = a.matmul(&b).unwrap();
            let slow = reference::matmul_ijk(&a, &b).unwrap();
            let tol = 1e-12 * (1.0 + slow.max_abs());
            assert!(
                fast.approx_eq(&slow, tol),
                "({m},{n},{k}): max diff {}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    #[test]
    fn blocked_is_bitwise_ascending_k_for_small_depth() {
        // For k <= KC the blocked accumulation order equals a textbook
        // ascending-k fused dot product, so results must be bit-identical.
        let a = det_matrix(23, KC, 5);
        let b = det_matrix(KC, 19, 6);
        let fast = a.matmul(&b).unwrap();
        let slow = reference::matmul_fused(&a, &b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn every_isa_is_bitwise_identical() {
        // Tile-edge shapes: full tiles, partial MR/NR tails, k below and
        // across the KC panel boundary. Every compiled back end must
        // produce the same bits for all of them and both pack paths.
        let shapes = [
            (MR, NR, 1),
            (MR, NR, KC),
            (MR - 1, NR - 3, 7),
            (MR + 1, NR + 1, KC + 1),
            (2 * MR + 3, 3 * NR + 5, 2 * KC + 9),
            (1, 1, 3),
        ];
        let isas = available_isas();
        for &(m, n, k) in &shapes {
            let a = det_matrix(m, k, (m * 7 + k) as u64);
            let b = det_matrix(k, n, (n * 13 + k) as u64);
            let mut base = vec![0.0; m * n];
            gemm_with_isa(
                Isa::Scalar,
                a.as_slice(),
                Op::NoTrans,
                k,
                b.as_slice(),
                Op::NoTrans,
                n,
                &mut base,
                m,
                n,
                k,
            );
            for &isa in &isas {
                let mut out = vec![0.0; m * n];
                gemm_with_isa(
                    isa,
                    a.as_slice(),
                    Op::NoTrans,
                    k,
                    b.as_slice(),
                    Op::NoTrans,
                    n,
                    &mut out,
                    m,
                    n,
                    k,
                );
                assert_eq!(out, base, "{isa:?} gemm ({m},{n},{k})");
                // Transposed packing feeds the same micro-kernel.
                let at = a.transpose();
                let mut out_t = vec![0.0; m * n];
                gemm_with_isa(
                    isa,
                    at.as_slice(),
                    Op::Trans,
                    m,
                    b.as_slice(),
                    Op::NoTrans,
                    n,
                    &mut out_t,
                    m,
                    n,
                    k,
                );
                assert_eq!(out_t, base, "{isa:?} gemm-trans ({m},{n},{k})");
            }
        }
    }

    /// `len` entries from a few small dyadic values (±0.0 included), so
    /// products and partial sums are often exact and chains cancel to zero.
    fn dyadic(len: usize, seed: u64) -> Vec<f64> {
        const VALUES: [f64; 8] = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0];
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                VALUES[(state >> 61) as usize]
            })
            .collect()
    }

    /// Bitwise equality, except that any NaN matches any NaN: which NaN
    /// payload a fused chain propagates is not part of the contract.
    fn same_bits(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn narrow_tile_matches_fused_oracle_on_every_isa() {
        // Every shape the unpacked driver takes near its edges — row tails,
        // a single row, every `n`, `k` up to KC — with `A` and `B` read at
        // strides wider than their rows (the padding is NaN, so a read past
        // a row shows) must equal the textbook fused loop bit for bit, on
        // every back end. Planted: NaN and ±∞ rows of `A`, and a row that
        // underflows to -0.0 in `B`'s last column.
        let isas = available_isas();
        for m in (0..=33).chain([255, 256, 257]) {
            for n in 1..=NARROW_N {
                for k in [1, 7, 8, 63, 64, 65, KC] {
                    let (lda, ldb) = (k + m % 3, n + k % 2);
                    let seed = (m * 10_000 + n * 1000 + k) as u64;
                    let mut a = vec![f64::NAN; m * lda];
                    for (row, vals) in a.chunks_mut(lda).zip(dyadic(m * k, seed).chunks(k)) {
                        row[..k].copy_from_slice(vals);
                    }
                    let mut b = vec![f64::NAN; (k - 1) * ldb + n];
                    for (p, vals) in dyadic(k * n, seed ^ 0xB).chunks(n).enumerate() {
                        b[p * ldb..p * ldb + n].copy_from_slice(vals);
                        // Non-negative, so row 0's -0.0 survives every step.
                        b[p * ldb + n - 1] = vals[n - 1].abs();
                    }
                    b[n - 1] = 1e-300;
                    if m >= 4 {
                        a[..k].fill(-0.0);
                        a[0] = -1e-300;
                        a[lda + k / 2] = f64::NAN;
                        a[2 * lda] = f64::INFINITY;
                        a[3 * lda + k - 1] = f64::NEG_INFINITY;
                    }
                    let am = Matrix::from_fn(m, k, |i, p| a[i * lda + p]);
                    let bm = Matrix::from_fn(k, n, |p, j| b[p * ldb + j]);
                    let want = reference::matmul_fused(&am, &bm).unwrap();
                    if m >= 4 {
                        assert_eq!(want[(0, n - 1)].to_bits(), (-0.0f64).to_bits());
                    }
                    for &isa in &isas {
                        let mut out = vec![12345.0; m * n];
                        gemm_with_isa(
                            isa,
                            &a,
                            Op::NoTrans,
                            lda,
                            &b,
                            Op::NoTrans,
                            ldb,
                            &mut out,
                            m,
                            n,
                            k,
                        );
                        assert!(
                            same_bits(&out, want.as_slice()),
                            "{isa:?} ({m},{n},{k}) lda {lda} ldb {ldb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shapes_past_the_narrow_bounds_stay_packed() {
        // `n = 17` at `k ≤ KC` is packed, and the packed driver's one chain
        // per element still equals the textbook loop. At `k = KC + 1` both
        // drivers add one chain per KC panel into `out`: the result is that
        // two-panel sum on every back end, not the single chain across all
        // of `k` that the textbook loop computes.
        for &(m, n, k) in &[(37, NARROW_N + 1, 64), (37, NARROW_N, KC + 1)] {
            let a = det_matrix(m, k, (m * 7 + k) as u64);
            let b = det_matrix(k, n, (n * 13 + k) as u64);
            let single = reference::matmul_fused(&a, &b).unwrap();
            let want = if k <= KC {
                single.clone()
            } else {
                let panel = |lo: usize, hi: usize| {
                    let a = Matrix::from_fn(m, hi - lo, |i, p| a[(i, lo + p)]);
                    let b = Matrix::from_fn(hi - lo, n, |p, j| b[(lo + p, j)]);
                    reference::matmul_fused(&a, &b).unwrap()
                };
                let (head, tail) = (panel(0, KC), panel(KC, k));
                let sum = Matrix::from_fn(m, n, |i, j| head[(i, j)] + tail[(i, j)]);
                assert_ne!(sum, single, "the data must tell the two orders apart");
                sum
            };
            for isa in available_isas() {
                let mut out = vec![0.0; m * n];
                gemm_with_isa(
                    isa,
                    a.as_slice(),
                    Op::NoTrans,
                    k,
                    b.as_slice(),
                    Op::NoTrans,
                    n,
                    &mut out,
                    m,
                    n,
                    k,
                );
                assert!(same_bits(&out, want.as_slice()), "{isa:?} ({m},{n},{k})");
            }
        }
    }

    #[test]
    fn narrow_driver_past_kc_matches_panel_sums_on_every_isa() {
        // Past KC the unpacked driver must reproduce the packed driver's
        // sum of one fused chain per KC panel, `((0.0 + t₀) + t₁) + …`, bit
        // for bit on every back end, with `A` and `B` read at strides wider
        // than their rows (NaN padding). Row 0, last column is planted so
        // that every panel's chain underflows to -0.0: the panel sum is then
        // +0.0, while a first panel stored as is, or one chain across all
        // of `k`, would leave -0.0.
        let isas = available_isas();
        for k in [KC + 1, 2 * KC, 2 * KC + 9, 1024] {
            for n in [1, 10, NARROW_N] {
                for m in [1, 7, 37] {
                    let (lda, ldb) = (k + 5, n + 2);
                    let src_a = det_matrix(m, k, (m * 7 + k) as u64);
                    let src_b = det_matrix(k, n, (n * 13 + k) as u64);
                    let mut a = vec![f64::NAN; m * lda];
                    let mut b = vec![f64::NAN; k * ldb];
                    for i in 0..m {
                        a[i * lda..i * lda + k].copy_from_slice(src_a.row(i));
                    }
                    for p in 0..k {
                        b[p * ldb..p * ldb + n].copy_from_slice(src_b.row(p));
                        b[p * ldb + n - 1] = b[p * ldb + n - 1].abs();
                    }
                    a[..k].fill(-0.0);
                    for pc in (0..k).step_by(KC) {
                        a[pc] = -1e-300;
                        b[pc * ldb + n - 1] = 1e-300;
                    }
                    let am = Matrix::from_fn(m, k, |i, p| a[i * lda + p]);
                    let bm = Matrix::from_fn(k, n, |p, j| b[p * ldb + j]);
                    let mut want = Matrix::zeros(m, n);
                    for pc in (0..k).step_by(KC) {
                        let kc = KC.min(k - pc);
                        let pa = Matrix::from_fn(m, kc, |i, p| am[(i, pc + p)]);
                        let pb = Matrix::from_fn(kc, n, |p, j| bm[(pc + p, j)]);
                        let t = reference::matmul_fused(&pa, &pb).unwrap();
                        want = Matrix::from_fn(m, n, |i, j| want[(i, j)] + t[(i, j)]);
                    }
                    let single = reference::matmul_fused(&am, &bm).unwrap();
                    assert_eq!(want[(0, n - 1)].to_bits(), 0.0f64.to_bits());
                    assert_eq!(single[(0, n - 1)].to_bits(), (-0.0f64).to_bits());
                    if m * n >= 70 {
                        assert_ne!(want, single, "the data must tell the two orders apart");
                    }
                    for &isa in &isas {
                        let mut out = vec![12345.0; m * n];
                        gemm_with_isa(
                            isa,
                            &a,
                            Op::NoTrans,
                            lda,
                            &b,
                            Op::NoTrans,
                            ldb,
                            &mut out,
                            m,
                            n,
                            k,
                        );
                        assert!(
                            same_bits(&out, want.as_slice()),
                            "{isa:?} ({m},{n},{k}) lda {lda} ldb {ldb}"
                        );
                    }
                }
            }
        }
    }

    /// One narrow-shape product (`9 × 64` times `64 × 16`) with operands of
    /// the given lengths.
    fn narrow_product(a_len: usize, b_len: usize, out_len: usize) {
        let (m, n, k) = (9, 16, 64);
        let (a, b, mut out) = (vec![1.0; a_len], vec![1.0; b_len], vec![0.0; out_len]);
        gemm(&a, Op::NoTrans, k, &b, Op::NoTrans, n, &mut out, m, n, k);
    }

    #[test]
    fn narrow_product_with_exact_extents_runs() {
        narrow_product(9 * 64, 64 * 16, 9 * 16);
    }

    #[test]
    #[should_panic(expected = "gemm: a holds")]
    fn short_a_is_refused() {
        narrow_product(9 * 64 - 1, 64 * 16, 9 * 16);
    }

    #[test]
    #[should_panic(expected = "gemm: b holds")]
    fn short_b_is_refused() {
        narrow_product(9 * 64, 64 * 16 - 1, 9 * 16);
    }

    #[test]
    #[should_panic(expected = "gemm: out holds")]
    fn short_out_is_refused() {
        narrow_product(9 * 64, 64 * 16, 9 * 16 - 1);
    }

    #[test]
    fn dot_and_axpy_bitwise_identical_across_isas() {
        for len in [0usize, 1, 5, 7, 8, 9, 16, 33, 100, 257] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.21).cos() * 2.0).collect();
            let base_dot = dot_with_isa(Isa::Scalar, &a, &b);
            let mut base_y = b.clone();
            axpy_with_isa(Isa::Scalar, 1.7, &a, &mut base_y);
            for isa in available_isas() {
                let d = dot_with_isa(isa, &a, &b);
                assert_eq!(d.to_bits(), base_dot.to_bits(), "{isa:?} dot len {len}");
                let mut y = b.clone();
                axpy_with_isa(isa, 1.7, &a, &mut y);
                assert_eq!(y, base_y, "{isa:?} axpy len {len}");
            }
        }
    }

    #[test]
    fn forced_kernel_requests_resolve_safely() {
        // Supported names select themselves; unsupported or unknown names
        // fall back to auto-detection rather than an illegal kernel.
        let isas = available_isas();
        let auto = *isas.last().unwrap();
        assert_eq!(select_isa(Some("scalar")), Isa::Scalar);
        assert_eq!(select_isa(None), auto);
        assert_eq!(select_isa(Some("mmx")), auto);
        for &isa in &isas {
            let name = match isa {
                Isa::Scalar => "scalar",
                Isa::Avx2Fma => "avx2",
                Isa::Avx512 => "avx512",
            };
            assert_eq!(select_isa(Some(name)), isa);
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = det_matrix(33, 21, 7);
        let b = det_matrix(33, 13, 8);
        let fast = a.tr_matmul(&b).unwrap();
        let slow = reference::matmul_ijk(&a.transpose(), &b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12 * (1.0 + slow.max_abs())));

        let a = det_matrix(19, 27, 9);
        let b = det_matrix(23, 27, 10);
        let fast = a.matmul_tr(&b).unwrap();
        let slow = reference::matmul_ijk(&a, &b.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12 * (1.0 + slow.max_abs())));
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 3));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    /// With the `parallel` feature, row-band fan-out must be bit-identical
    /// to the sequential path (bands are numerically independent).
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_is_bit_identical() {
        let m = 2 * MC + 7; // large enough to cross the fan-out threshold
        let a = det_matrix(m, 300, 21);
        let b = det_matrix(300, 150, 22);
        std::env::set_var("IDES_LINALG_THREADS", "4");
        let par = a.matmul(&b).unwrap();
        std::env::set_var("IDES_LINALG_THREADS", "1");
        let seq = a.matmul(&b).unwrap();
        std::env::remove_var("IDES_LINALG_THREADS");
        assert_eq!(par, seq);
    }

    #[test]
    fn dot_matches_sequential() {
        for len in [0usize, 1, 3, 4, 5, 17, 64, 100] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.21).cos()).collect();
            let seq: f64 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            assert!(
                (dot(&a, &b) - seq).abs() <= 1e-12 * (1.0 + seq.abs()),
                "len {len}"
            );
        }
    }

    #[test]
    fn gemv_matches_matmul_with_vector() {
        let a = det_matrix(13, 7, 11);
        let x: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let via_matmul = reference::matmul_ijk(&a, &Matrix::col_vector(&x)).unwrap();
        let direct = a.matvec(&x).unwrap();
        for i in 0..13 {
            assert!((direct[i] - via_matmul[(i, 0)]).abs() < 1e-12);
        }
        let v: Vec<f64> = (0..13).map(|i| (i as f64 * 0.5).sin()).collect();
        let via_matmul = reference::matmul_ijk(&a.transpose(), &Matrix::col_vector(&v)).unwrap();
        let direct = a.tr_matvec(&v).unwrap();
        for j in 0..7 {
            assert!((direct[j] - via_matmul[(j, 0)]).abs() < 1e-12);
        }
    }
}
