//! Persistent (copy-on-write) chunked row storage.
//!
//! [`ChunkedRows`] stores a table of fixed-width rows as a two-level tree
//! of reference-counted chunks: rows pack into [`CHUNK_ROWS`]-row chunks
//! (`Arc<Vec<T>>`), chunks pack into [`SPINE_CHUNKS`]-chunk spine blocks
//! (`Arc<SpineBlock>`), and the spine vector itself sits behind one more
//! `Arc`. Cloning the table is therefore **O(1)** — a single `Arc`
//! increment regardless of row count. The first mutation after a clone
//! copies the spine vector (`O(len / (CHUNK_ROWS · SPINE_CHUNKS))` `Arc`
//! bumps — ~64 pointers at a million rows), and each mutated row copies
//! only its own chunk and spine block (`Arc::make_mut` down the path),
//! so two clones share every chunk they have not diverged on.
//!
//! This is the storage behind `ides::service`'s snapshot publish: the
//! writer keeps a `ChunkedRows` table, and *publishing* a snapshot is one
//! clone whose cost tracks the spine length — independent of how many
//! rows the table holds — while the published snapshot stays immutable
//! under the writer's subsequent copy-on-write mutations.
//!
//! Reads go through [`ChunkedRows::row`] (a contiguous `&[T]` — rows
//! never straddle chunks). The element type is `Copy + Default`
//! (`f64` coordinate rows, `bool` liveness flags), which keeps chunk
//! copies `memcpy`-cheap.

use std::sync::Arc;

/// Rows per leaf chunk. A power of two so row addressing is shift/mask;
/// 256 rows of a 32-wide `f64` table is a 64 KiB chunk — big enough to
/// amortize the `Arc` overhead, small enough that a single-row write
/// copies little.
pub const CHUNK_ROWS: usize = 256;

/// Leaf chunks per spine block. Bounds the copy cost of the spine
/// vector on the first write after a clone: one million rows is ~4000
/// chunks but only ~64 spine blocks, so diverging the spine stays
/// O(tens) of `Arc` bumps.
pub const SPINE_CHUNKS: usize = 64;

/// One spine block: up to [`SPINE_CHUNKS`] leaf chunks.
#[derive(Debug, Clone)]
struct SpineBlock<T: Copy> {
    chunks: Vec<Arc<Vec<T>>>,
}

/// A copy-on-write table of fixed-width rows (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct ChunkedRows<T: Copy + Default = f64> {
    cols: usize,
    len: usize,
    spine: Arc<Vec<Arc<SpineBlock<T>>>>,
}

impl<T: Copy + Default> ChunkedRows<T> {
    /// An empty table of `cols`-wide rows (`cols >= 1`).
    pub fn new(cols: usize) -> Self {
        assert!(cols >= 1, "ChunkedRows needs at least one column");
        ChunkedRows {
            cols,
            len: 0,
            spine: Arc::new(Vec::new()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of leaf chunks currently allocated.
    pub fn chunk_count(&self) -> usize {
        self.len.div_ceil(CHUNK_ROWS)
    }

    fn locate(&self, row: usize) -> (usize, usize, usize) {
        let chunk = row / CHUNK_ROWS;
        (chunk / SPINE_CHUNKS, chunk % SPINE_CHUNKS, row % CHUNK_ROWS)
    }

    /// Row `row` as a contiguous slice. Panics when out of range.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.len, "row {row} out of range (len {})", self.len);
        let (s, c, r) = self.locate(row);
        &self.spine[s].chunks[c][r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable access to row `row`, copying the row's chunk (and spine
    /// block) first if they are shared with a clone. Panics when out of
    /// range.
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.len, "row {row} out of range (len {})", self.len);
        let (s, c, r) = self.locate(row);
        let cols = self.cols;
        let spine = Arc::make_mut(&mut self.spine);
        let block = Arc::make_mut(&mut spine[s]);
        let chunk = Arc::make_mut(&mut block.chunks[c]);
        &mut chunk[r * cols..(r + 1) * cols]
    }

    /// Overwrites row `row` with `values` (must be `cols` long).
    pub fn set_row(&mut self, row: usize, values: &[T]) {
        assert_eq!(values.len(), self.cols, "row width mismatch");
        self.row_mut(row).copy_from_slice(values);
    }

    /// Replaces leaf chunk `chunk` (rows `chunk * CHUNK_ROWS ..`) wholesale
    /// with `rows`, which must hold exactly as many rows as the chunk does
    /// now. The old chunk is released, never copied — the whole-chunk
    /// counterpart of [`ChunkedRows::row_mut`], which would first duplicate
    /// a shared chunk only for every byte of the copy to be overwritten.
    /// Give `rows` capacity for a full chunk when later
    /// [`ChunkedRows::push_row`] calls should extend it in place. Panics
    /// when `chunk` is out of range or the row count differs.
    pub fn replace_chunk(&mut self, chunk: usize, rows: Vec<T>) {
        assert!(
            chunk < self.chunk_count(),
            "chunk {chunk} out of range ({} chunks)",
            self.chunk_count()
        );
        let held = CHUNK_ROWS.min(self.len - chunk * CHUNK_ROWS);
        assert_eq!(rows.len(), held * self.cols, "chunk row count mismatch");
        let spine = Arc::make_mut(&mut self.spine);
        let block = Arc::make_mut(&mut spine[chunk / SPINE_CHUNKS]);
        block.chunks[chunk % SPINE_CHUNKS] = Arc::new(rows);
    }

    /// Appends a row (must be `cols` long), growing the tree as needed.
    pub fn push_row(&mut self, values: &[T]) {
        assert_eq!(values.len(), self.cols, "row width mismatch");
        let (s, c, r) = self.locate(self.len);
        let spine = Arc::make_mut(&mut self.spine);
        if s == spine.len() {
            spine.push(Arc::new(SpineBlock { chunks: Vec::new() }));
        }
        let block = Arc::make_mut(&mut spine[s]);
        if c == block.chunks.len() {
            block
                .chunks
                .push(Arc::new(Vec::with_capacity(CHUNK_ROWS * self.cols)));
        }
        let chunk = Arc::make_mut(&mut block.chunks[c]);
        debug_assert_eq!(chunk.len(), r * self.cols);
        chunk.extend_from_slice(values);
        self.len += 1;
    }

    /// Appends `n` default-valued rows.
    pub fn push_default_rows(&mut self, n: usize) {
        let zero = vec![T::default(); self.cols];
        for _ in 0..n {
            self.push_row(&zero);
        }
    }

    /// Drops all rows, keeping the column width. Chunks are released (a
    /// clone taken earlier keeps its own references).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spine = Arc::new(Vec::new());
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Number of leaf chunks physically shared (same allocation) between
    /// `self` and `other` — the observable face of copy-on-write: after
    /// `let b = a.clone()`, every chunk is shared; after one `set_row`,
    /// exactly one chunk has diverged.
    pub fn shared_chunks_with(&self, other: &ChunkedRows<T>) -> usize {
        if Arc::ptr_eq(&self.spine, &other.spine) {
            return self.chunk_count().min(other.chunk_count());
        }
        let mut shared = 0;
        for (sa, sb) in self.spine.iter().zip(other.spine.iter()) {
            if Arc::ptr_eq(sa, sb) {
                shared += sa.chunks.len();
                continue;
            }
            for (ca, cb) in sa.chunks.iter().zip(sb.chunks.iter()) {
                if Arc::ptr_eq(ca, cb) {
                    shared += 1;
                }
            }
        }
        shared
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for ChunkedRows<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.cols == other.cols
            && self.rows().zip(other.rows()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize) -> (ChunkedRows<f64>, Vec<Vec<f64>>) {
        let mut t = ChunkedRows::new(cols);
        let mut shadow = Vec::with_capacity(rows);
        for i in 0..rows {
            let row: Vec<f64> = (0..cols).map(|j| (i * cols + j) as f64 * 0.5).collect();
            t.push_row(&row);
            shadow.push(row);
        }
        (t, shadow)
    }

    #[test]
    fn push_and_read_round_trip() {
        // Cross several chunk and spine boundaries.
        let rows = CHUNK_ROWS * SPINE_CHUNKS + CHUNK_ROWS + 7;
        let (t, shadow) = filled(rows, 3);
        assert_eq!(t.len(), rows);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.chunk_count(), rows.div_ceil(CHUNK_ROWS));
        for (i, want) in shadow.iter().enumerate() {
            assert_eq!(t.row(i), want.as_slice());
        }
        let collected: Vec<&[f64]> = t.rows().collect();
        assert_eq!(collected.len(), rows);
    }

    #[test]
    fn set_row_and_row_mut_update_in_place() {
        let (mut t, mut shadow) = filled(600, 4);
        t.set_row(0, &[9.0; 4]);
        shadow[0] = vec![9.0; 4];
        t.row_mut(599)[2] = -1.0;
        shadow[599][2] = -1.0;
        t.set_row(257, &[7.0; 4]);
        shadow[257] = vec![7.0; 4];
        for (i, want) in shadow.iter().enumerate() {
            assert_eq!(t.row(i), want.as_slice(), "row {i}");
        }
    }

    #[test]
    fn clone_shares_all_chunks_until_mutation() {
        let (mut t, _) = filled(CHUNK_ROWS * 5 + 10, 2);
        let snap = t.clone();
        let chunks = t.chunk_count();
        assert_eq!(t.shared_chunks_with(&snap), chunks);
        // One row write diverges exactly one chunk.
        t.set_row(CHUNK_ROWS * 2 + 3, &[1.0, 2.0]);
        assert_eq!(t.shared_chunks_with(&snap), chunks - 1);
        // Writing another row of the SAME chunk diverges nothing more.
        t.set_row(CHUNK_ROWS * 2 + 4, &[3.0, 4.0]);
        assert_eq!(t.shared_chunks_with(&snap), chunks - 1);
        t.set_row(0, &[5.0, 6.0]);
        assert_eq!(t.shared_chunks_with(&snap), chunks - 2);
    }

    #[test]
    fn replace_chunk_swaps_one_chunk_and_spares_clones() {
        let rows = CHUNK_ROWS * SPINE_CHUNKS + CHUNK_ROWS + 9;
        let (mut t, shadow) = filled(rows, 2);
        let frozen = t.clone();
        let chunks = t.chunk_count();
        // A full chunk in the first spine block, and the ragged last chunk.
        t.replace_chunk(3, vec![-1.0; CHUNK_ROWS * 2]);
        let mut tail = Vec::with_capacity(CHUNK_ROWS * 2);
        tail.resize(9 * 2, -2.0);
        t.replace_chunk(chunks - 1, tail);
        assert_eq!(t.shared_chunks_with(&frozen), chunks - 2);
        for (i, want) in shadow.iter().enumerate() {
            assert_eq!(frozen.row(i), want.as_slice(), "frozen row {i} changed");
            let replaced = if i / CHUNK_ROWS == 3 {
                Some(-1.0)
            } else if i / CHUNK_ROWS == chunks - 1 {
                Some(-2.0)
            } else {
                None
            };
            match replaced {
                Some(v) => assert_eq!(t.row(i), &[v, v]),
                None => assert_eq!(t.row(i), want.as_slice()),
            }
        }
        // The replaced tail keeps growing like any other chunk.
        t.push_row(&[7.0, 8.0]);
        assert_eq!(t.row(rows), &[7.0, 8.0]);
        assert_eq!(t.row(rows - 1), &[-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "chunk row count mismatch")]
    fn replace_chunk_rejects_a_wrong_row_count() {
        let (mut t, _) = filled(CHUNK_ROWS + 5, 2);
        t.replace_chunk(1, vec![0.0; 4 * 2]);
    }

    #[test]
    fn clones_are_immutable_under_source_mutation() {
        let (mut t, shadow) = filled(CHUNK_ROWS * 3, 3);
        let frozen = t.clone();
        for i in 0..t.len() {
            t.set_row(i, &[-1.0, -2.0, -3.0]);
        }
        t.push_row(&[0.0; 3]);
        for (i, want) in shadow.iter().enumerate() {
            assert_eq!(frozen.row(i), want.as_slice(), "frozen row {i} changed");
        }
        assert_eq!(frozen.len(), CHUNK_ROWS * 3);
        assert_eq!(t.shared_chunks_with(&frozen), 0);
    }

    #[test]
    fn push_after_clone_does_not_disturb_clone() {
        let (mut t, _) = filled(CHUNK_ROWS + CHUNK_ROWS / 2, 2);
        let frozen = t.clone();
        let tail_before: Vec<f64> = frozen.row(frozen.len() - 1).to_vec();
        // Push into the partially filled chunk: the writer copies it.
        for i in 0..CHUNK_ROWS {
            t.push_row(&[i as f64, 0.0]);
        }
        assert_eq!(frozen.len(), CHUNK_ROWS + CHUNK_ROWS / 2);
        assert_eq!(frozen.row(frozen.len() - 1), tail_before.as_slice());
        // The full (cold) chunk is still shared; the partial one diverged.
        assert!(t.shared_chunks_with(&frozen) >= 1);
    }

    #[test]
    fn bool_rows_work() {
        let mut t: ChunkedRows<bool> = ChunkedRows::new(1);
        t.push_default_rows(300);
        assert!(!t.row(299)[0]);
        t.row_mut(299)[0] = true;
        assert!(t.row(299)[0]);
        assert_eq!(t.rows().filter(|r| r[0]).count(), 1);
        let u = t.clone();
        t.row_mut(0)[0] = true;
        assert!(!u.row(0)[0]);
        assert_eq!(t, t.clone());
        assert!(t != u);
    }

    #[test]
    fn clear_releases_rows_but_not_clones() {
        let (mut t, shadow) = filled(CHUNK_ROWS + 1, 2);
        let keep = t.clone();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.chunk_count(), 0);
        assert_eq!(keep.len(), CHUNK_ROWS + 1);
        assert_eq!(keep.row(5), shadow[5].as_slice());
        t.push_row(&[1.0, 2.0]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let (t, _) = filled(10, 2);
        let _ = t.row(10);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_wrong_width_panics() {
        let mut t: ChunkedRows<f64> = ChunkedRows::new(3);
        t.push_row(&[1.0, 2.0]);
    }
}
