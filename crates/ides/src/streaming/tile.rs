//! The tiled cached host join: the one full-measurement join/rejoin path.
//!
//! Every full-measurement join — a coalescer flush, a bulk admission, a
//! snapshot-side tentative join, a drift epoch's rejoin — runs through
//! [`LandmarkModel::join_into`]: the hosts are cut into
//! fixed tiles of [`TILE_ROWS`], and each tile is
//!
//! 1. **read in place**: when the tile's table rows are consecutive (the
//!    serving engine always rejoins `0..slots`; a dense batch is `0..rows`)
//!    the GEMM reads that row range of the measurement table directly
//!    through [`kernels::gemm`]'s slice interface; only a scattered list
//!    gathers, one tile (`TILE_ROWS × k` doubles) at a time;
//! 2. **solved hot**: the `TILE_ROWS × d` right-hand sides land in a
//!    per-worker scratch tile that stays cache-resident between the GEMM
//!    and the two lane-blocked triangular solves
//!    ([`CachedGram::solve_rows_in_place`]);
//! 3. **handed over**: the finished tile goes to the caller's
//!    [`TileSink`], which writes it wherever the coordinates live (a
//!    [`BatchHostVectors`] table, fresh chunks of the serving engine's
//!    chunk tree, newly assigned host slots).
//!
//! Nothing proportional to the host count is allocated or copied on the
//! way. A host's coordinates depend only on its own measurement row and
//! the model — the GEMM accumulates each output cell in ascending `k`
//! order whatever the row's position in its band, and the solve is
//! lane-independent — so results are **bit-identical at any tile
//! boundary and any worker count**.
//!
//! **Thread policy.** A join fans out, through
//! [`kernels::fan_out`] and up to the process's thread budget, only when
//! every worker gets at least [`MIN_TILES_PER_WORKER`] tiles — see the
//! constant for the measurements behind the grain.
//!
//! [`CachedGram::solve_rows_in_place`]: ides_linalg::solve::CachedGram::solve_rows_in_place

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Mutex;

use ides_linalg::chunked::CHUNK_ROWS;
use ides_linalg::kernels::{self, Op};
use ides_linalg::Matrix;

use super::LandmarkModel;
use crate::error::{IdesError, Result};
use crate::eval::shard_ranges;
use crate::projection::BatchHostVectors;

/// Hosts per tile. At `d = 16` a tile's two right-hand-side blocks are
/// 64 KiB together, and its GEMM reads 256 measurement rows per pass. A
/// multiple of the serving engine's leaf chunk, so a tile of the engine's
/// `0..slots` rejoin is a run of whole leaves (four at 64 rows), each
/// installed fresh.
const TILE_ROWS: usize = 256;
const _: () = assert!(TILE_ROWS.is_multiple_of(CHUNK_ROWS));

/// Minimum tiles per worker before [`LandmarkModel::join_into`] fans out.
/// Sized from what a worker costs on the 2-vCPU benchmark host (every
/// worker of a fan-out is spawned): a scoped spawn + join of an idle
/// thread ≈ 16 µs. A tile at the
/// benchmark's `k = 64`, `d = 16` is ≈ 75 µs of GEMM + solves (512 hosts:
/// 147–154 µs on one thread), so 8 tiles ≈ 0.6 ms of work per worker keeps
/// that fixed cost under 5 % of the smallest share ever handed to a
/// thread; below 16 tiles (4 096 hosts) the join runs on the caller.
const MIN_TILES_PER_WORKER: usize = 8;

/// Workers for a join of `tiles` tiles: the process's thread budget,
/// clamped so each worker gets at least [`MIN_TILES_PER_WORKER`] tiles.
fn tile_workers(tiles: usize) -> usize {
    kernels::thread_budget()
        .min(tiles / MIN_TILES_PER_WORKER)
        .max(1)
}

/// Which rows of a measurement table a join covers, in join order.
#[derive(Debug, Clone)]
pub(crate) enum HostRows<'a> {
    /// Rows `first, first + step, …` (`len` of them): a dense range
    /// (`step = 1`) or one shard's share of a dealt bulk batch.
    Strided {
        first: usize,
        step: usize,
        len: usize,
    },
    /// An explicit row list — any order, repeats allowed.
    Ids(Cow<'a, [usize]>),
}

impl<'a> HostRows<'a> {
    /// The consecutive rows `rows`.
    pub fn range(rows: Range<usize>) -> Self {
        HostRows::Strided {
            first: rows.start,
            step: 1,
            len: rows.len(),
        }
    }

    /// The listed rows, borrowed.
    pub fn ids(ids: &'a [usize]) -> Self {
        HostRows::Ids(Cow::Borrowed(ids))
    }

    pub fn len(&self) -> usize {
        match self {
            HostRows::Strided { len, .. } => *len,
            HostRows::Ids(ids) => ids.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th row.
    pub fn get(&self, i: usize) -> usize {
        match self {
            HostRows::Strided { first, step, .. } => first + i * step,
            HostRows::Ids(ids) => ids[i],
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Positions `part` of the join order, as a borrowed view.
    pub fn slice(&self, part: Range<usize>) -> HostRows<'_> {
        match self {
            HostRows::Strided { step, .. } => HostRows::Strided {
                first: self.get(part.start),
                step: *step,
                len: part.len(),
            },
            HostRows::Ids(ids) => HostRows::ids(&ids[part]),
        }
    }

    /// `Some(lo..hi)` when the rows are `lo, lo + 1, …, hi − 1` in that
    /// order — the table can then be read in place.
    fn as_range(&self) -> Option<Range<usize>> {
        let consecutive = match self {
            HostRows::Strided { step, len, .. } => *step == 1 || *len <= 1,
            HostRows::Ids(ids) => ids.windows(2).all(|w| w[1].wrapping_sub(w[0]) == 1),
        };
        (consecutive && !self.is_empty()).then(|| self.get(0)..self.get(0) + self.len())
    }

    /// The largest row, `None` when empty.
    fn max(&self) -> Option<usize> {
        match self {
            HostRows::Strided { .. } => self.len().checked_sub(1).map(|last| self.get(last)),
            HostRows::Ids(ids) => ids.iter().copied().max(),
        }
    }
}

/// Checks that `d_out` / `d_in` are two flattened `hosts × k` tables of
/// equal size and that every row of `rows` exists in them.
pub(crate) fn check_rows(d_out: &[f64], d_in: &[f64], k: usize, rows: &HostRows<'_>) -> Result<()> {
    let hosts = d_out.len() / k.max(1);
    if d_in.len() != d_out.len() || hosts * k != d_out.len() {
        return Err(IdesError::InvalidInput(format!(
            "measurement tables must both be hosts x {k}: {} out values, {} in values",
            d_out.len(),
            d_in.len()
        )));
    }
    match rows.max() {
        Some(bad) if bad >= hosts => Err(IdesError::InvalidInput(format!(
            "affected host {bad} out of range for {hosts} hosts"
        ))),
        _ => Ok(()),
    }
}

/// Receives each finished tile: row `i` of the tile holds the coordinates
/// of table row `rows.get(i)`. Tiles arrive in no particular order when
/// more than one thread solves them (one call at a time, though); every
/// tile of a join has the same shape, so a join that delivers its first
/// tile delivers them all.
pub(crate) type TileSink<'s> = dyn FnMut(&HostRows<'_>, &BatchHostVectors) + Send + 's;

/// The [`TileSink`] body for a coordinate table indexed like the
/// measurement tables: tile row `i` overwrites `coords` row `rows.get(i)`.
pub(crate) fn scatter_tile(
    coords: &mut BatchHostVectors,
    rows: &HostRows<'_>,
    tile: &BatchHostVectors,
) {
    for (i, h) in rows.iter().enumerate() {
        coords.set_host(h, tile.outgoing(i), tile.incoming(i));
    }
}

/// One worker's reusable tile: the solved coordinates and, for scattered
/// rows only, the gathered measurement rows. A serving shard's writer keeps
/// one, so a lone flush allocates no tile.
#[derive(Debug, Default)]
pub(crate) struct TileScratch {
    tile: BatchHostVectors,
    gathered: Vec<f64>,
}

impl TileScratch {
    /// Joins `rows` into `self.tile`: per direction, one GEMM to assemble
    /// the right-hand sides and one multi-row triangular solve (Eqs. 13–14);
    /// a one-row tile solves both directions together.
    fn join(
        &mut self,
        lm: &LandmarkModel,
        d_out: &[f64],
        d_in: &[f64],
        rows: &HostRows<'_>,
    ) -> Result<()> {
        let TileScratch { tile, gathered } = self;
        let (len, d) = (rows.len(), lm.model.dim());
        if tile.len() != len || tile.dim() != d {
            tile.reset_shape(len, d);
        }
        let in_place = rows.as_range();
        let (out_m, in_m) = tile.matrices_mut();
        for (meas, factor, rhs) in [
            (d_out, lm.model.y(), &mut *out_m),
            (d_in, lm.model.x(), &mut *in_m),
        ] {
            let k = factor.rows();
            let a = match &in_place {
                Some(r) => &meas[r.start * k..r.end * k],
                None => {
                    gathered.clear();
                    for h in rows.iter() {
                        gathered.extend_from_slice(&meas[h * k..(h + 1) * k]);
                    }
                    gathered.as_slice()
                }
            };
            kernels::gemm(
                a,
                Op::NoTrans,
                k,
                factor.as_slice(),
                Op::NoTrans,
                d,
                rhs.as_mut_slice(),
                len,
                d,
                k,
            );
        }
        if len == 1 {
            // A lone host: its two one-row solves, interleaved.
            let (out_row, in_row) = (out_m.as_mut_slice(), in_m.as_mut_slice());
            lm.gram_y.solve_pair_in_place(out_row, &lm.gram_x, in_row)?;
        } else {
            lm.gram_y.solve_rows_in_place(out_m)?;
            lm.gram_x.solve_rows_in_place(in_m)?;
        }
        Ok(())
    }
}

impl LandmarkModel {
    /// The cached host join (one GEMM and one `O(d²)` triangular solve per
    /// host and direction, no factorization) of `rows` of the flattened
    /// `hosts × k` tables `d_out` / `d_in`, tile by tile into `sink` — see
    /// the [module docs](self). Fans out per [`tile_workers`]; tiles then
    /// reach `sink` in no particular order.
    pub(crate) fn join_into(
        &self,
        d_out: &[f64],
        d_in: &[f64],
        rows: &HostRows<'_>,
        sink: &mut TileSink<'_>,
    ) -> Result<()> {
        let workers = tile_workers(rows.len().div_ceil(TILE_ROWS));
        self.join_tiles(d_out, d_in, rows, workers, sink)
    }

    /// [`LandmarkModel::join_into`] on exactly `workers` workers (never
    /// more than tiles) through [`kernels::fan_out`], each taking a
    /// contiguous run of tiles. One worker is
    /// [`LandmarkModel::join_inline`]. The coordinates handed over are
    /// bit-identical at any count.
    pub(crate) fn join_tiles(
        &self,
        d_out: &[f64],
        d_in: &[f64],
        rows: &HostRows<'_>,
        workers: usize,
        sink: &mut TileSink<'_>,
    ) -> Result<()> {
        let tiles = rows.len().div_ceil(TILE_ROWS);
        if workers <= 1 || tiles <= 1 {
            return self.join_inline(d_out, d_in, rows, &mut TileScratch::default(), sink);
        }
        check_rows(d_out, d_in, self.model.x().rows(), rows)?;
        let sink = Mutex::new(sink);
        let run = |tiles: Range<usize>| -> Result<()> {
            let mut scratch = TileScratch::default();
            for t in tiles {
                let tile_rows = rows.slice(t * TILE_ROWS..rows.len().min((t + 1) * TILE_ROWS));
                scratch.join(self, d_out, d_in, &tile_rows)?;
                let mut deliver = sink.lock().expect("a tile sink panicked");
                (*deliver)(&tile_rows, &scratch.tile);
            }
            Ok(())
        };
        kernels::fan_out(shard_ranges(tiles, workers), |(lo, hi)| run(lo..hi))
            .into_iter()
            .collect()
    }

    /// The cached join of `rows` on the calling thread — no scope, no sink
    /// lock — through the caller's `scratch`: tiles reach `sink` in join
    /// order.
    pub(crate) fn join_inline(
        &self,
        d_out: &[f64],
        d_in: &[f64],
        rows: &HostRows<'_>,
        scratch: &mut TileScratch,
        sink: &mut TileSink<'_>,
    ) -> Result<()> {
        check_rows(d_out, d_in, self.model.x().rows(), rows)?;
        for lo in (0..rows.len()).step_by(TILE_ROWS) {
            let tile_rows = rows.slice(lo..rows.len().min(lo + TILE_ROWS));
            scratch.join(self, d_out, d_in, &tile_rows)?;
            sink(&tile_rows, &scratch.tile);
        }
        Ok(())
    }

    /// Joins a dense batch of ordinary hosts through the **cached**
    /// normal-equation factorizations: row `h` of `out` receives the
    /// coordinates of row `h` of `d_out` / `d_in` (both `hosts × k`). One
    /// GEMM per direction assembles the right-hand sides, then one `O(d²)`
    /// triangular solve per host — no factorization on the query path.
    ///
    /// Results are **bit-identical** to
    /// [`crate::projection::join_hosts_into`] against the model's factors
    /// with the [`crate::projection::JoinSolver::NormalEquations`] solver
    /// (and the server's ridge): the caches are always a from-scratch
    /// factorization of those factors, and
    /// [`ides_linalg::solve::CachedGram`] runs exactly the same arithmetic.
    pub fn join_batch(
        &self,
        d_out: &Matrix,
        d_in: &Matrix,
        out: &mut BatchHostVectors,
    ) -> Result<()> {
        let k = self.model.x().rows();
        if d_out.shape() != d_in.shape() || d_out.cols() != k {
            return Err(IdesError::InvalidInput(format!(
                "measurement batch must be hosts x {k}: out {:?}, in {:?}",
                d_out.shape(),
                d_in.shape()
            )));
        }
        out.reset_shape(d_out.rows(), self.model.dim());
        self.join_into(
            d_out.as_slice(),
            d_in.as_slice(),
            &HostRows::range(0..d_out.rows()),
            &mut |rows, tile| scatter_tile(out, rows, tile),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{StalenessPolicy, StreamingServer};

    fn server(k: usize, dim: usize) -> StreamingServer {
        let ds = ides_datasets::generators::p2psim_like(k + 10, 5).expect("dataset");
        let sub: Vec<usize> = (0..k).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        StreamingServer::new(&lm, dim, StalenessPolicy::default()).expect("server")
    }

    fn table(hosts: usize, k: usize, salt: u64) -> Matrix {
        let mut state = salt;
        Matrix::from_fn(hosts, k, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 80.0 + 2.0
        })
    }

    #[test]
    fn host_rows_views() {
        let dealt = HostRows::Strided {
            first: 1,
            step: 3,
            len: 4,
        };
        assert_eq!(dealt.iter().collect::<Vec<_>>(), [1, 4, 7, 10]);
        assert_eq!(dealt.slice(1..3).iter().collect::<Vec<_>>(), [4, 7]);
        assert_eq!(dealt.max(), Some(10));
        assert_eq!(dealt.as_range(), None);
        assert_eq!(dealt.slice(2..3).as_range(), Some(7..8));
        assert_eq!(HostRows::range(5..9).as_range(), Some(5..9));
        assert_eq!(HostRows::range(5..5).as_range(), None);
        assert_eq!(HostRows::range(5..5).max(), None);
        let ids = [4usize, 5, 6, 9, 8];
        let listed = HostRows::ids(&ids);
        assert_eq!(listed.as_range(), None);
        assert_eq!(listed.slice(0..3).as_range(), Some(4..7));
        assert_eq!(
            listed.slice(3..5).as_range(),
            None,
            "descending is a gather"
        );
        assert_eq!(listed.max(), Some(9));
    }

    #[test]
    fn tiled_rejoin_matches_per_host_joins_at_any_thread_count() {
        // Unsorted, non-contiguous host lists whose lengths straddle tile
        // boundaries: every listed row must carry the bits of a one-host
        // cached join, every other row must be left alone, whatever the
        // thread count (and hence whichever worker a tile lands on).
        let (k, dim) = (12, 5);
        let server = server(k, dim);
        let lm = server.landmark_model();
        for listed in [255usize, 256, 257, 513] {
            let hosts = listed + listed / 2 + 3;
            let (d_out, d_in) = (table(hosts, k, 7), table(hosts, k, 8));
            // Every third host is skipped, the rest visited in a scrambled
            // order (multiplying by a unit mod `pool.len()` permutes it).
            let pool: Vec<usize> = (0..hosts).filter(|h| h % 3 != 1).collect();
            let stride = (0..)
                .map(|i| pool.len() / 2 + 1 + i)
                .find(|s| gcd(*s, pool.len()) == 1)
                .expect("a unit exists");
            let affected: Vec<usize> = (0..listed).map(|i| pool[i * stride % pool.len()]).collect();
            assert!(affected.windows(2).any(|w| w[1] < w[0]), "list is unsorted");

            let mut want = BatchHostVectors::new();
            want.reset_shape(hosts, dim);
            let mut one = BatchHostVectors::new();
            for &h in &affected {
                let row_out = Matrix::from_rows(&[d_out.row(h).to_vec()]).unwrap();
                let row_in = Matrix::from_rows(&[d_in.row(h).to_vec()]).unwrap();
                lm.join_batch(&row_out, &row_in, &mut one).unwrap();
                want.set_host(h, one.outgoing(0), one.incoming(0));
            }
            for threads in [1usize, 2, 4, 7] {
                let mut coords = BatchHostVectors::new();
                coords.reset_shape(hosts, dim);
                lm.join_tiles(
                    d_out.as_slice(),
                    d_in.as_slice(),
                    &HostRows::ids(&affected),
                    threads,
                    &mut |rows, tile| scatter_tile(&mut coords, rows, tile),
                )
                .unwrap();
                // Unlisted rows keep the zeros both tables started with.
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(coords.outgoing_matrix()),
                    bits(want.outgoing_matrix()),
                    "{listed} hosts, {threads} threads: outgoing"
                );
                assert_eq!(
                    bits(coords.incoming_matrix()),
                    bits(want.incoming_matrix()),
                    "{listed} hosts, {threads} threads: incoming"
                );
            }
        }
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn rows_outside_the_tables_are_rejected_before_any_tile() {
        let server = server(10, 3);
        let (d_out, d_in) = (table(6, 10, 1), table(6, 10, 2));
        let mut delivered = 0usize;
        for rows in [HostRows::range(4..7), HostRows::ids(&[0, 6, 1])] {
            let r = server.landmark_model().join_tiles(
                d_out.as_slice(),
                d_in.as_slice(),
                &rows,
                2,
                &mut |_, _| delivered += 1,
            );
            assert!(matches!(r, Err(IdesError::InvalidInput(_))));
        }
        // Tables of different heights, or not a whole number of rows.
        let short = table(5, 10, 3);
        for (a, b) in [
            (d_out.as_slice(), short.as_slice()),
            (&d_out.as_slice()[..55], &d_in.as_slice()[..55]),
        ] {
            let r = server
                .landmark_model()
                .join_into(a, b, &HostRows::range(0..2), &mut |_, _| delivered += 1);
            assert!(matches!(r, Err(IdesError::InvalidInput(_))));
        }
        assert_eq!(delivered, 0);
    }
}
