//! Host-join least squares (§5.1, Eqs. 11–14; §5.2, Eqs. 15–16).
//!
//! An ordinary host measures distances to and from a set of reference
//! nodes with known vectors (all landmarks in the basic architecture, any
//! `k ≥ d` nodes in the relaxed one) and solves two small least-squares
//! problems for its own outgoing and incoming vectors:
//!
//! ```text
//! X_new = argmin Σᵢ (Dᵒᵘᵗᵢ − U · Y_i)²   =>  (Dᵒᵘᵗ Y)(YᵀY)⁻¹
//! Y_new = argmin Σᵢ (Dᶦⁿᵢ  − X_i · U)²   =>  (Dᶦⁿ X)(XᵀX)⁻¹
//! ```
//!
//! # Batched joins
//!
//! The design matrix of every join against one landmark set is the *same*
//! `k x d` factor matrix; only the measurement vector differs per host. The
//! batch API ([`join_hosts_with`] / [`join_hosts_into`]) exploits this: the
//! factorization (QR of the references, or Cholesky of the shared Gram
//! matrix `AᵀA + λI`) is computed **once per batch**, the right-hand sides
//! for all hosts are assembled as a single `hosts x d` GEMM on the blocked
//! kernel layer, and each host's solution reduces to one triangular solve.
//! Joining a batch of `H` hosts therefore costs one factorization plus
//! `O(H)` small solves instead of `H` factorizations — the refactor that
//! makes an information server absorb many ordinary hosts cheaply (§5).
//!
//! The per-host [`join_host_with`] is a thin wrapper over a batch of one,
//! so batched and sequential joins run the exact same arithmetic: every
//! output cell of the blocked GEMM accumulates over the shared `k`
//! dimension in an order independent of the batch's row count, making
//! batched results **bit-identical** to one-at-a-time joins (property-
//! tested in `tests/proptests.rs`). The nonnegative (NNLS) solver is the
//! one exception with no batched factorization: the batch API falls back
//! to an active-set solve per host while still amortizing the gathered
//! buffers.

use ides_linalg::factor::{qr_with, FactorWorkspace};
use ides_linalg::qr::Qr;
use ides_linalg::{nnls, qr, solve, Matrix};
use ides_mf::FactorModel;
use serde::{Deserialize, Serialize};

use crate::error::{IdesError, Result};

/// Which least-squares solver computes the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinSolver {
    /// Householder-QR least squares (numerically preferred).
    Qr,
    /// The paper's literal normal equations `(AᵀA)⁻¹Aᵀb` (Eqs. 13–14).
    NormalEquations,
    /// Nonnegative least squares — guarantees nonnegative predictions when
    /// the landmark model came from NMF (§5.1).
    NonNegative,
}

/// Options for a host join.
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// Solver choice.
    pub solver: JoinSolver,
    /// Ridge term added when the system is ill-conditioned (0 disables).
    pub ridge: f64,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            solver: JoinSolver::Qr,
            ridge: 0.0,
        }
    }
}

/// A joined host's coordinates: its outgoing and incoming vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostVectors {
    /// Outgoing vector `X_new` (length `d`).
    pub outgoing: Vec<f64>,
    /// Incoming vector `Y_new` (length `d`).
    pub incoming: Vec<f64>,
}

impl HostVectors {
    /// Estimated distance from this host to one with incoming vector `y`.
    pub fn distance_to(&self, incoming_of_other: &[f64]) -> f64 {
        FactorModel::dot(&self.outgoing, incoming_of_other)
    }

    /// Estimated distance from a host with outgoing vector `x` to this one.
    pub fn distance_from(&self, outgoing_of_other: &[f64]) -> f64 {
        FactorModel::dot(outgoing_of_other, &self.incoming)
    }

    /// Estimated distance from this host to another joined host.
    pub fn distance_to_host(&self, other: &HostVectors) -> f64 {
        self.distance_to(&other.incoming)
    }
}

/// Outgoing/incoming vectors for a whole batch of joined hosts, stored as
/// matrix rows (`hosts x d` each) so evaluation sweeps can score pairs
/// without materializing one [`HostVectors`] allocation per host.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchHostVectors {
    outgoing: Matrix,
    incoming: Matrix,
}

impl BatchHostVectors {
    /// Creates an empty batch; reused across [`join_hosts_into`] calls, the
    /// matrices grow to their high-water shape and then stop allocating.
    pub fn new() -> Self {
        BatchHostVectors::default()
    }

    /// Number of hosts in the batch.
    pub fn len(&self) -> usize {
        self.outgoing.rows()
    }

    /// True when the batch holds no hosts.
    pub fn is_empty(&self) -> bool {
        self.outgoing.rows() == 0
    }

    /// Vector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.outgoing.cols()
    }

    /// Outgoing vector of batch host `i`.
    pub fn outgoing(&self, i: usize) -> &[f64] {
        self.outgoing.row(i)
    }

    /// Incoming vector of batch host `i`.
    pub fn incoming(&self, i: usize) -> &[f64] {
        self.incoming.row(i)
    }

    /// The `hosts x d` outgoing-vector matrix.
    #[cfg(test)]
    pub fn outgoing_matrix(&self) -> &Matrix {
        &self.outgoing
    }

    /// The `hosts x d` incoming-vector matrix.
    #[cfg(test)]
    pub fn incoming_matrix(&self) -> &Matrix {
        &self.incoming
    }

    /// Estimated distance from batch host `i` to batch host `j`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        FactorModel::dot(self.outgoing.row(i), self.incoming.row(j))
    }

    /// Copies batch host `i` out into an owned [`HostVectors`].
    pub fn host(&self, i: usize) -> HostVectors {
        HostVectors {
            outgoing: self.outgoing.row(i).to_vec(),
            incoming: self.incoming.row(i).to_vec(),
        }
    }

    /// Copies the whole batch into per-host [`HostVectors`].
    pub fn to_hosts(&self) -> Vec<HostVectors> {
        (0..self.len()).map(|i| self.host(i)).collect()
    }

    /// Overwrites batch host `i`'s vectors in place — how the streaming
    /// layer's re-join of affected hosts scatters fresh coordinates into a
    /// long-lived coordinate table without reallocating it.
    pub fn set_host(&mut self, i: usize, outgoing: &[f64], incoming: &[f64]) {
        self.outgoing.row_mut(i).copy_from_slice(outgoing);
        self.incoming.row_mut(i).copy_from_slice(incoming);
    }

    /// Resizes the batch to `hosts x d` (contents unspecified) — staging
    /// for callers that fill rows via [`BatchHostVectors::set_host`].
    pub fn reset_shape(&mut self, hosts: usize, d: usize) {
        self.outgoing.reset_shape(hosts, d);
        self.incoming.reset_shape(hosts, d);
    }

    /// Mutable access to the raw `hosts x d` outgoing/incoming matrices,
    /// for same-crate batch solvers that write whole coordinate blocks.
    pub(crate) fn matrices_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.outgoing, &mut self.incoming)
    }

    /// Appends another batch's hosts (same dimensionality) — how sharded
    /// evaluation merges per-shard join results in deterministic order.
    pub fn extend_from(&mut self, other: &BatchHostVectors) -> Result<()> {
        if self.is_empty() {
            self.outgoing = other.outgoing.clone();
            self.incoming = other.incoming.clone();
            return Ok(());
        }
        if other.is_empty() {
            return Ok(());
        }
        if other.dim() != self.dim() {
            return Err(IdesError::InvalidInput(format!(
                "cannot merge batches of dimension {} and {}",
                self.dim(),
                other.dim()
            )));
        }
        self.outgoing = self.outgoing.vcat(&other.outgoing)?;
        self.incoming = self.incoming.vcat(&other.incoming)?;
        Ok(())
    }
}

/// Reusable buffers for repeated host joins (evaluation sweeps, simulated
/// protocol servers). Holds the gathered reference submatrices for partial
/// joins, the single-host measurement staging rows, and the normal-equation
/// solver scratch, so the join hot path never clones the factor matrices
/// and — on the batched normal-equation, ridge, and QR paths — performs no
/// allocation per additional host once warm.
#[derive(Debug, Default)]
pub struct JoinWorkspace {
    /// Gathered outgoing reference vectors (partial joins).
    x_sub: Matrix,
    /// Gathered incoming reference vectors (partial joins).
    y_sub: Matrix,
    /// Single-host staging for the thin per-host wrappers (1 x k).
    d_out_row: Matrix,
    /// Single-host staging for the thin per-host wrappers (1 x k).
    d_in_row: Matrix,
    /// Batch-of-one output staging for the per-host wrappers.
    single: BatchHostVectors,
    /// Factorization scratch shared by every solver in the join.
    solvers: SolverScratch,
}

/// The factorization state of a batched join: normal-equation scratch plus
/// the blocked-QR workspace and its factor output, so the QR path factors
/// the reference system **once per batch** through
/// [`ides_linalg::factor::qr_with`] and allocates nothing when warm.
#[derive(Debug, Default)]
struct SolverScratch {
    /// Normal-equation / ridge solver scratch.
    ne: solve::NormalEqWorkspace,
    /// Blocked-factorization workspace (QR panels, block-apply buffers).
    factor: FactorWorkspace,
    /// Reused QR factor of the batch's reference system.
    qr: Qr,
}

impl JoinWorkspace {
    /// Creates an empty workspace; buffers grow to their high-water mark on
    /// first use.
    pub fn new() -> Self {
        JoinWorkspace::default()
    }
}

/// Solves the join for one ordinary host.
///
/// * `x_refs` / `y_refs`: outgoing / incoming vectors of the `k` reference
///   nodes as rows (`k x d`).
/// * `d_out[i]`: measured distance *to* reference `i`.
/// * `d_in[i]`: measured distance *from* reference `i`.
///
/// Requires `k >= d` (the paper's solvability condition); returns
/// [`IdesError::TooFewObservations`] otherwise (unless a positive ridge
/// term makes the smaller system well-posed).
///
/// Convenience wrapper over [`join_host_with`] that builds a fresh
/// [`JoinWorkspace`] per call; batch callers should hold one workspace.
pub fn join_host(
    x_refs: &Matrix,
    y_refs: &Matrix,
    d_out: &[f64],
    d_in: &[f64],
    opts: JoinOptions,
) -> Result<HostVectors> {
    let mut ws = JoinWorkspace::new();
    join_host_with(&mut ws, x_refs, y_refs, d_out, d_in, opts)
}

/// [`join_host`] with caller-provided workspace: the variant repeated-join
/// callers (protocol servers, per-host sweeps) use to avoid per-join clones
/// of the reference matrices. A thin wrapper over a batch of one —
/// [`join_hosts_with`] is the same computation for many hosts at once.
pub fn join_host_with(
    ws: &mut JoinWorkspace,
    x_refs: &Matrix,
    y_refs: &Matrix,
    d_out: &[f64],
    d_in: &[f64],
    opts: JoinOptions,
) -> Result<HostVectors> {
    let k = x_refs.rows();
    if d_out.len() != k || d_in.len() != k {
        return Err(IdesError::InvalidInput(format!(
            "expected {k} out/in measurements, got {}/{}",
            d_out.len(),
            d_in.len()
        )));
    }
    ws.d_out_row.reset_shape(1, k);
    ws.d_out_row.row_mut(0).copy_from_slice(d_out);
    ws.d_in_row.reset_shape(1, k);
    ws.d_in_row.row_mut(0).copy_from_slice(d_in);
    join_refs_batch(
        &mut ws.solvers,
        x_refs,
        y_refs,
        &ws.d_out_row,
        &ws.d_in_row,
        opts,
        &mut ws.single,
    )?;
    Ok(ws.single.host(0))
}

/// Joins a whole batch of ordinary hosts against one reference set in one
/// shot, returning owned per-host vectors.
///
/// * `x_refs` / `y_refs`: outgoing / incoming vectors of the `k` shared
///   reference nodes as rows (`k x d`).
/// * `d_out` / `d_in`: `hosts x k` measurement matrices — row `h` holds
///   host `h`'s measured distances to (`d_out`) and from (`d_in`) each
///   reference.
///
/// One factorization of the shared system serves every host; see the
/// module docs for the cost model and the bit-identity guarantee relative
/// to per-host [`join_host_with`] calls. Convenience wrapper over
/// [`join_hosts_into`], which reuses the output batch across calls.
pub fn join_hosts_with(
    ws: &mut JoinWorkspace,
    x_refs: &Matrix,
    y_refs: &Matrix,
    d_out: &Matrix,
    d_in: &Matrix,
    opts: JoinOptions,
) -> Result<Vec<HostVectors>> {
    let mut batch = BatchHostVectors::new();
    join_hosts_into(ws, x_refs, y_refs, d_out, d_in, opts, &mut batch)?;
    Ok(batch.to_hosts())
}

/// [`join_hosts_with`] writing the batch into a caller-owned
/// [`BatchHostVectors`]: the zero-allocation core of the batched join
/// path. Once `ws` and `out` are warm (have held a batch at least this
/// large), joining additional hosts allocates nothing on the QR,
/// normal-equation, and ridge paths.
pub fn join_hosts_into(
    ws: &mut JoinWorkspace,
    x_refs: &Matrix,
    y_refs: &Matrix,
    d_out: &Matrix,
    d_in: &Matrix,
    opts: JoinOptions,
    out: &mut BatchHostVectors,
) -> Result<()> {
    if d_out.shape() != d_in.shape() {
        return Err(IdesError::InvalidInput(format!(
            "measurement batch shapes disagree: out {:?}, in {:?}",
            d_out.shape(),
            d_in.shape()
        )));
    }
    if d_out.cols() != x_refs.rows() {
        return Err(IdesError::InvalidInput(format!(
            "expected {} measurements per host, got {}",
            x_refs.rows(),
            d_out.cols()
        )));
    }
    join_refs_batch(&mut ws.solvers, x_refs, y_refs, d_out, d_in, opts, out)
}

/// Shared batched-join core: validates the reference system, then solves
/// the outgoing batch against `y_refs` and the incoming batch against
/// `x_refs`.
fn join_refs_batch(
    solvers: &mut SolverScratch,
    x_refs: &Matrix,
    y_refs: &Matrix,
    d_out: &Matrix,
    d_in: &Matrix,
    opts: JoinOptions,
    out: &mut BatchHostVectors,
) -> Result<()> {
    let k = x_refs.rows();
    let d = x_refs.cols();
    if y_refs.shape() != (k, d) {
        return Err(IdesError::InvalidInput(format!(
            "reference vector shapes disagree: X {:?}, Y {:?}",
            x_refs.shape(),
            y_refs.shape()
        )));
    }
    if k < d && opts.ridge <= 0.0 {
        return Err(IdesError::TooFewObservations {
            observed: k,
            needed: d,
        });
    }
    // X_new solves min ‖Y_refs · X_newᵀ − d_out‖ (each reference's incoming
    // vector dotted with X_new approximates the outgoing distance).
    solve_batch(solvers, y_refs, d_out, opts, &mut out.outgoing)?;
    solve_batch(solvers, x_refs, d_in, opts, &mut out.incoming)?;
    Ok(())
}

/// Shared validate-and-gather step of the subset joins: checks the subset
/// indices against the reference system and the solvability condition,
/// then gathers the observed reference rows into `ws.x_sub` / `ws.y_sub`.
/// Both the per-host and the grouped-batch subset joins run through this
/// one helper so their guard conditions cannot drift apart (the grouped
/// sweep's bit-identity contract depends on that).
fn gather_subset(
    ws: &mut JoinWorkspace,
    x_refs: &Matrix,
    y_refs: &Matrix,
    observed: &[usize],
    opts: JoinOptions,
) -> Result<()> {
    let k = x_refs.rows();
    let d = x_refs.cols();
    if let Some(&bad) = observed.iter().find(|&&i| i >= k) {
        return Err(IdesError::InvalidInput(format!(
            "observed reference index {bad} out of range for {k} references"
        )));
    }
    if observed.len() < d && opts.ridge <= 0.0 {
        return Err(IdesError::TooFewObservations {
            observed: observed.len(),
            needed: d,
        });
    }
    x_refs.select_rows_into(observed, &mut ws.x_sub);
    y_refs.select_rows_into(observed, &mut ws.y_sub);
    Ok(())
}

/// Partial join through the reference subset `observed` (row indices into
/// `x_refs`/`y_refs`): gathers the subset into the workspace instead of
/// cloning fresh submatrices per call.
pub fn join_host_subset_with(
    ws: &mut JoinWorkspace,
    x_refs: &Matrix,
    y_refs: &Matrix,
    observed: &[usize],
    d_out: &[f64],
    d_in: &[f64],
    opts: JoinOptions,
) -> Result<HostVectors> {
    if observed.len() != d_out.len() || observed.len() != d_in.len() {
        return Err(IdesError::InvalidInput(
            "observed indices and measurements must have equal length".into(),
        ));
    }
    gather_subset(ws, x_refs, y_refs, observed, opts)?;
    ws.d_out_row.reset_shape(1, observed.len());
    ws.d_out_row.row_mut(0).copy_from_slice(d_out);
    ws.d_in_row.reset_shape(1, observed.len());
    ws.d_in_row.row_mut(0).copy_from_slice(d_in);
    join_refs_batch(
        &mut ws.solvers,
        &ws.x_sub,
        &ws.y_sub,
        &ws.d_out_row,
        &ws.d_in_row,
        opts,
        &mut ws.single,
    )?;
    Ok(ws.single.host(0))
}

/// Joins a whole **batch of hosts sharing one observed reference subset**
/// (row indices into `x_refs`/`y_refs`) through a single factorization of
/// the gathered subsystem — the grouped form of [`join_host_subset_with`]
/// the §6.2 failure sweep uses: hosts are grouped by identical observed
/// subset and each distinct subset is gathered and factored **once**.
///
/// `d_out` / `d_in` are `hosts x observed.len()` measurement matrices in
/// subset order. Because the batched solvers' arithmetic per host is
/// independent of the batch's row count, the results are **bit-identical**
/// to per-host [`join_host_subset_with`] calls with the same subset.
#[allow(clippy::too_many_arguments)]
pub fn join_hosts_subset_into(
    ws: &mut JoinWorkspace,
    x_refs: &Matrix,
    y_refs: &Matrix,
    observed: &[usize],
    d_out: &Matrix,
    d_in: &Matrix,
    opts: JoinOptions,
    out: &mut BatchHostVectors,
) -> Result<()> {
    if d_out.shape() != d_in.shape() {
        return Err(IdesError::InvalidInput(format!(
            "measurement batch shapes disagree: out {:?}, in {:?}",
            d_out.shape(),
            d_in.shape()
        )));
    }
    if d_out.cols() != observed.len() {
        return Err(IdesError::InvalidInput(format!(
            "expected {} measurements per host, got {}",
            observed.len(),
            d_out.cols()
        )));
    }
    gather_subset(ws, x_refs, y_refs, observed, opts)?;
    join_refs_batch(
        &mut ws.solvers,
        &ws.x_sub,
        &ws.y_sub,
        d_out,
        d_in,
        opts,
        out,
    )
}

/// Solves `min ‖A xₕᵀ − bₕ‖` for every measurement row `bₕ` of `b` with one
/// shared factorization, writing host `h`'s solution into row `h` of `out`.
fn solve_batch(
    solvers: &mut SolverScratch,
    a: &Matrix,
    b: &Matrix,
    opts: JoinOptions,
    out: &mut Matrix,
) -> Result<()> {
    let hosts = b.rows();
    let d = a.cols();
    if opts.ridge > 0.0 {
        solve::lstsq_ridge_multi_with(a, b, opts.ridge, &mut solvers.ne, out)?;
        return Ok(());
    }
    match opts.solver {
        JoinSolver::Qr => {
            out.reset_shape(hosts, d);
            // Factor the shared reference system once per batch through the
            // blocked factorization layer; the workspace and the `Qr` output
            // are reused across batches, so a warm join allocates nothing.
            match qr_with(a, &mut solvers.factor, &mut solvers.qr) {
                Ok(()) => {
                    let Qr { q, r } = &solvers.qr;
                    // QᵀB for the whole batch in one GEMM (row h = Qᵀ bₕ),
                    // then one in-place back-substitution per host.
                    b.matmul_into(q, out)?;
                    for h in 0..hosts {
                        if qr::solve_upper_triangular_in_place(r, out.row_mut(h)).is_err() {
                            // Rank-deficient column: same fallback the
                            // scalar `qr::lstsq` path used per host.
                            let x = solve::lstsq_normal(a, b.row(h))?;
                            out.row_mut(h).copy_from_slice(&x);
                        }
                    }
                }
                // k < d (ridge-regularized callers only) or a degenerate
                // reference system: minimum-norm solution per host.
                Err(_) => {
                    for h in 0..hosts {
                        let x = solve::lstsq_normal(a, b.row(h))?;
                        out.row_mut(h).copy_from_slice(&x);
                    }
                }
            }
        }
        JoinSolver::NormalEquations => {
            // λ = 0 ridge is exactly the normal equations, solved through
            // the workspace (falls back to the pseudo-inverse path on
            // rank deficiency, like `lstsq_normal`).
            solve::lstsq_ridge_multi_with(a, b, 0.0, &mut solvers.ne, out)?;
        }
        JoinSolver::NonNegative => {
            // NNLS is an active-set iteration with no shared factorization;
            // solve per host (the one non-amortized solver).
            out.reset_shape(hosts, d);
            for h in 0..hosts {
                let x = nnls::nnls(a, b.row(h))?;
                out.row_mut(h).copy_from_slice(&x);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ides_mf::svd_model::{fit_matrix, SvdConfig};
    use ides_netsim::topology::figure1_distance_matrix;

    /// The §5.1 worked example: landmark vectors from the Figure-1 matrix,
    /// host H1 with distances [0.5, 1.5, 1.5, 2.5] to all four landmarks.
    #[test]
    fn paper_section5_basic_example() {
        let d = figure1_distance_matrix();
        let model = fit_matrix(
            &d,
            SvdConfig {
                dim: 3,
                force_exact: true,
            },
        )
        .unwrap();
        let douts = [0.5, 1.5, 1.5, 2.5];
        let h1 = join_host(model.x(), model.y(), &douts, &douts, JoinOptions::default()).unwrap();
        // Distances to landmarks are exactly preserved.
        for (i, &expected) in douts.iter().enumerate() {
            let est = h1.distance_to(model.incoming(i));
            assert!(
                (est - expected).abs() < 1e-9,
                "to L{i}: {est} vs {expected}"
            );
            let est = h1.distance_from(model.outgoing(i));
            assert!(
                (est - expected).abs() < 1e-9,
                "from L{i}: {est} vs {expected}"
            );
        }
        // H2 mirrors H1; the predicted H1–H2 distance is 3.25 (true 3).
        let d2 = [2.5, 1.5, 1.5, 0.5];
        let h2 = join_host(model.x(), model.y(), &d2, &d2, JoinOptions::default()).unwrap();
        let est = h1.distance_to_host(&h2);
        assert!((est - 3.25).abs() < 1e-9, "H1->H2 {est}");
        let est_rev = h2.distance_to_host(&h1);
        assert!((est_rev - 3.25).abs() < 1e-9, "H2->H1 {est_rev}");
    }

    /// The §5.2 relaxed example: H2 joins through L2, L4 and the
    /// already-joined H1 instead of all landmarks.
    #[test]
    fn paper_section5_relaxed_example() {
        let d = figure1_distance_matrix();
        let model = fit_matrix(
            &d,
            SvdConfig {
                dim: 3,
                force_exact: true,
            },
        )
        .unwrap();
        // H1 joins through L1, L2, L3 (measured distances 0.5, 1.5, 1.5).
        let x_sub = model.x().select_rows(&[0, 1, 2]);
        let y_sub = model.y().select_rows(&[0, 1, 2]);
        let m1 = [0.5, 1.5, 1.5];
        let h1 = join_host(&x_sub, &y_sub, &m1, &m1, JoinOptions::default()).unwrap();
        // The unmeasured distance H1–L4 is predicted exactly (2.5).
        let est = h1.distance_to(model.incoming(3));
        assert!((est - 2.5).abs() < 1e-9, "H1->L4 {est}");

        // H2 joins through L2, L4, H1 with distances [1.5, 0.5, 3].
        let x_refs = Matrix::from_rows(&[
            model.outgoing(1).to_vec(),
            model.outgoing(3).to_vec(),
            h1.outgoing.clone(),
        ])
        .unwrap();
        let y_refs = Matrix::from_rows(&[
            model.incoming(1).to_vec(),
            model.incoming(3).to_vec(),
            h1.incoming.clone(),
        ])
        .unwrap();
        let m2 = [1.5, 0.5, 3.0];
        let h2 = join_host(&x_refs, &y_refs, &m2, &m2, JoinOptions::default()).unwrap();
        // Paper: H2–L1 ≈ 2.3 (true 2.5) and H2–L3 ≈ 1.3 (true 1.5); the
        // worst relative error in the example is 15 %.
        let to_l1 = h2.distance_to(model.incoming(0));
        assert!((to_l1 - 2.5).abs() <= 0.25, "H2->L1 {to_l1}");
        let to_l3 = h2.distance_to(model.incoming(2));
        assert!((to_l3 - 1.5).abs() <= 0.25, "H2->L3 {to_l3}");
    }

    #[test]
    fn too_few_references_rejected() {
        let x = Matrix::zeros(2, 3);
        let y = Matrix::zeros(2, 3);
        let err = join_host(&x, &y, &[1.0, 2.0], &[1.0, 2.0], JoinOptions::default());
        assert!(matches!(
            err,
            Err(IdesError::TooFewObservations {
                observed: 2,
                needed: 3
            })
        ));
        // But a ridge term makes it solvable.
        let ok = join_host(
            &x,
            &y,
            &[1.0, 2.0],
            &[1.0, 2.0],
            JoinOptions {
                ridge: 0.1,
                ..Default::default()
            },
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn solver_variants_agree_on_well_posed_interior_problem() {
        let d = figure1_distance_matrix();
        let model = fit_matrix(
            &d,
            SvdConfig {
                dim: 3,
                force_exact: true,
            },
        )
        .unwrap();
        let m = [0.5, 1.5, 1.5, 2.5];
        let qr = join_host(model.x(), model.y(), &m, &m, JoinOptions::default()).unwrap();
        let ne = join_host(
            model.x(),
            model.y(),
            &m,
            &m,
            JoinOptions {
                solver: JoinSolver::NormalEquations,
                ..Default::default()
            },
        )
        .unwrap();
        for (a, b) in qr.outgoing.iter().zip(ne.outgoing.iter()) {
            assert!(
                (a - b).abs() < 1e-8,
                "QR {:?} vs NE {:?}",
                qr.outgoing,
                ne.outgoing
            );
        }
    }

    #[test]
    fn nonnegative_solver_gives_nonnegative_predictions() {
        // With NMF landmark vectors (nonnegative) and NNLS join, all
        // predicted distances are nonnegative by construction.
        let ds = ides_datasets::generators::gnp_like(12, 3).unwrap();
        let sub: Vec<usize> = (0..8).collect();
        let landmarks = ds.matrix.submatrix(&sub, &sub);
        let nmf = ides_mf::nmf::fit(&landmarks, ides_mf::nmf::NmfConfig::new(4)).unwrap();
        let model = nmf.model;
        // Host 9 joins via its measured rows.
        let d_out: Vec<f64> = sub.iter().map(|&l| ds.matrix.get(9, l).unwrap()).collect();
        let d_in: Vec<f64> = sub.iter().map(|&l| ds.matrix.get(l, 9).unwrap()).collect();
        let host = join_host(
            model.x(),
            model.y(),
            &d_out,
            &d_in,
            JoinOptions {
                solver: JoinSolver::NonNegative,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(host.outgoing.iter().all(|&v| v >= 0.0));
        assert!(host.incoming.iter().all(|&v| v >= 0.0));
        for l in 0..8 {
            assert!(host.distance_to(model.incoming(l)) >= 0.0);
        }
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let x = Matrix::zeros(4, 2);
        let y = Matrix::zeros(3, 2);
        assert!(join_host(&x, &y, &[0.0; 4], &[0.0; 4], JoinOptions::default()).is_err());
        let y = Matrix::zeros(4, 2);
        assert!(join_host(&x, &y, &[0.0; 3], &[0.0; 4], JoinOptions::default()).is_err());
    }
}
