//! Persistent (copy-on-write) chunked row storage.
//!
//! [`ChunkedRows`] stores a table of fixed-width rows as a tree of
//! reference-counted slices: rows pack into [`CHUNK_ROWS`]-row leaves
//! (`Arc<[T]>`, each allocated whole when its first row arrives), leaves
//! into blocks of up to `FANOUT` (16) leaves, blocks into groups of up to
//! `FANOUT` blocks, and the spine — a slice of groups — sits in the table
//! itself. Every node holds exactly the children that exist. Cloning the
//! table is therefore **O(1)** — a single `Arc` increment regardless of
//! row count. The first write to a row after a clone copies the path down
//! to it (`Arc::make_mut` at each level): the spine (one `Arc` bump per
//! group — 62 at a million rows), the row's group and block (up to
//! `FANOUT` bumps each) and the row's leaf, so two clones share every leaf
//! they have not diverged on. Each bump is an atomic on the child's own
//! cache line, and dropping the superseded path costs as many again, which
//! is why the inner nodes stay narrow: with 64-leaf blocks a publish spent
//! more on `Arc` bumps than on copying the leaf.
//!
//! Each row also carries one **flag** bit, kept in its block beside the
//! leaf pointer rather than in the leaf, so flipping it copies the path
//! but never the leaf ([`ChunkedRows::set_flag`]). The serving engine
//! marks live host slots with it.
//!
//! A row read is four dependent loads past the table — the group out of
//! the spine, the block out of the group, the leaf and its flags out of
//! the block, then the row — with no `Vec` header between a pointer and
//! its data, and one range check ([`ChunkedRows::row`]). The inner nodes
//! are 16–24 bytes per child and stay cache-resident.
//!
//! This is the storage behind `ides::service`'s snapshot publish: the
//! writer keeps a `ChunkedRows` table, and *publishing* a snapshot is one
//! [`ChunkedRows::fork`], `O(1)` whatever the table holds, while the
//! published snapshot stays immutable under the writer's subsequent
//! copy-on-write mutations. The table counts the leaves it diverges from
//! its last fork as it copies them, so [`ChunkedRows::shared_with_fork`]
//! reads what the fork still shares without comparing a single pointer.
//!
//! The table grows through one path, [`ChunkedRows::extend_rows`]: the
//! rows that fit the partial last leaf are written into it like any other
//! row write (copy-on-write, so a fork never sees them), and every further
//! leaf is allocated and written whole, straight from the caller's rows,
//! its flags set as one word. [`ChunkedRows::push_row`] is its one-row
//! case; nothing zeroes a leaf only to overwrite it.
//!
//! Reads go through [`ChunkedRows::row`] (a contiguous `&[T]` — rows
//! never straddle leaves). The element type is `Copy + Default`, which
//! keeps leaf copies `memcpy`-cheap.

use std::mem::MaybeUninit;
use std::sync::Arc;

/// Rows per leaf chunk. A power of two so row addressing is shift/mask,
/// and at most 64 so a leaf's flags fit one word. The first write to a
/// row after a publish copies the row's whole leaf, so the leaf is what a
/// lone host join pays for: 64 rows of a 32-wide `f64` table (`d = 16`)
/// are 16 KiB, where the 256-row leaves this replaced were 64 KiB and
/// ≈ 1.3 µs of a ≈ 4 µs join. On a 5 000-host engine 32-row leaves cut
/// the row write by 0.15–0.25 µs, yet the lone join stayed within
/// run-to-run noise of 64-row leaves, while doubling the leaves a drift
/// epoch allocates and the leaf pointers reads walk past.
pub const CHUNK_ROWS: usize = 64;

/// Children per inner node (leaves per block, blocks per group). The
/// first write after a clone bumps every child of the one block and the
/// one group on its path, plus one pointer per group in the spine: one
/// million rows are ~15 600 leaves, ~980 blocks and 62 groups, so that
/// write costs 16 + 16 + 62 `Arc` bumps where one flat spine of 64-leaf
/// blocks cost 64 + 245.
const FANOUT: usize = 16;

/// One leaf: `CHUNK_ROWS` rows, allocated whole.
type Leaf<T> = Arc<[T]>;
/// An inner node: up to [`FANOUT`] children, exactly as many as exist, so
/// copying it bumps no placeholder.
type Node<C> = Arc<[C]>;
/// A leaf and its rows' flag bits (bit `r` for the leaf's row `r`).
type Entry<T> = (Leaf<T>, u64);
const _: () = assert!(CHUNK_ROWS <= u64::BITS as usize);
/// Up to `FANOUT` leaves with their flags.
type Block<T> = Node<Entry<T>>;
/// Up to `FANOUT` blocks.
type Group<T> = Node<Block<T>>;

/// `node` with `child` appended: a rebuilt slice, since an `Arc<[_]>`
/// cannot grow in place.
fn appended<C: Clone>(node: &Node<C>, child: C) -> Node<C> {
    node.iter().cloned().chain([child]).collect()
}

/// Values drawn in order from the concatenation of a caller's pieces, so
/// a write can take rows given as several slices (a host's outgoing and
/// incoming halves) without collecting them first.
struct Cells<'a, T, I> {
    run: &'a [T],
    pieces: I,
}

impl<'a, T, I: Iterator<Item = &'a [T]>> Cells<'a, T, I> {
    fn new(pieces: impl IntoIterator<Item = &'a [T], IntoIter = I>) -> Self {
        Cells {
            run: &[],
            pieces: pieces.into_iter(),
        }
    }

    /// Hands the next `n` values to `write` as `(offset, run)` pairs, the
    /// offsets consecutive from 0 and each run out of one piece. Panics
    /// when the pieces run out first.
    fn copy_next(&mut self, n: usize, mut write: impl FnMut(usize, &'a [T])) {
        let mut at = 0;
        while at < n {
            if self.run.is_empty() {
                self.run = self.pieces.next().expect("chunk row count mismatch");
                continue;
            }
            let (head, tail) = self.run.split_at(self.run.len().min(n - at));
            write(at, head);
            self.run = tail;
            at += head.len();
        }
    }

    /// Panics unless every value has been drawn.
    fn finish(mut self) {
        assert!(
            self.run.is_empty() && self.pieces.all(|p| p.is_empty()),
            "chunk row count mismatch"
        );
    }
}

/// A copy-on-write table of fixed-width rows (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct ChunkedRows<T: Copy + Default = f64> {
    cols: usize,
    len: usize,
    spine: Node<Group<T>>,
    /// Leaf count at the last [`ChunkedRows::fork`]: the leaves that fork
    /// holds.
    forked: usize,
    /// Leaves below `forked` that a write has copied or replaced since
    /// that fork.
    diverged: usize,
}

impl<T: Copy + Default> ChunkedRows<T> {
    /// An empty table of `cols`-wide rows (`cols >= 1`).
    pub fn new(cols: usize) -> Self {
        assert!(cols >= 1, "ChunkedRows needs at least one column");
        ChunkedRows {
            cols,
            len: 0,
            spine: Arc::new([]),
            forked: 0,
            diverged: 0,
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

    /// Number of leaf chunks currently allocated.
    pub fn chunk_count(&self) -> usize {
        self.len.div_ceil(CHUNK_ROWS)
    }

    /// Row `row`'s group, block within the group, leaf within the block
    /// and row within the leaf.
    fn locate(row: usize) -> [usize; 4] {
        let (chunk, r) = (row / CHUNK_ROWS, row % CHUNK_ROWS);
        let (block, c) = (chunk / FANOUT, chunk % FANOUT);
        [block / FANOUT, block % FANOUT, c, r]
    }

    /// Row `row`'s cells and flag, for `row < len`: the lookup behind
    /// [`ChunkedRows::row`], [`ChunkedRows::flag`] and
    /// [`ChunkedRows::flagged_row`], with no bounds check of its own.
    ///
    /// This is every query's lookup, so it is built to inline with no
    /// check past the caller's one against `len`. In a side-by-side probe
    /// at 50 000 rows, this walk with its four bounds checks read 7–14 %
    /// slower than the two-level `Vec` tree it replaced, and without them
    /// 6–15 % faster; none of them can fail.
    #[inline(always)]
    fn lookup(&self, row: usize) -> (&[T], bool) {
        let [g, b, c, r] = Self::locate(row);
        let cols = self.cols;
        debug_assert!(
            row < self.len
                && g < self.spine.len()
                && b < self.spine[g].len()
                && c < self.spine[g][b].len()
                && (r + 1) * cols <= self.spine[g][b][c].0.len()
        );
        // SAFETY: the tree is dense. `push_leaf` is the only way a leaf,
        // block or group comes into being, and it fills every node but the
        // last of its level to `FANOUT` children before opening the next;
        // `clear` empties the whole tree; every other write keeps each
        // node's length. So the tree holds exactly `chunk_count()` leaves
        // in order, and `row < len` (the caller's check) puts leaf
        // `row / CHUNK_ROWS` below that count: `g`, `b` and `c` index
        // existing children. Every leaf is allocated whole
        // (`CHUNK_ROWS * cols` cells), so the row's cells lie inside it.
        #[allow(unsafe_code)]
        unsafe {
            let (leaf, flags) = self
                .spine
                .get_unchecked(g)
                .get_unchecked(b)
                .get_unchecked(c);
            let cells = leaf.get_unchecked(r * cols..(r + 1) * cols);
            (cells, flags >> r & 1 == 1)
        }
    }

    /// Row `row` as a contiguous slice. Panics when out of range.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        if row >= self.len {
            out_of_range(row, self.len);
        }
        self.lookup(row).0
    }

    /// Row `row`'s flag: one bit per row, kept beside the row's leaf
    /// pointer rather than in the leaf, so setting it copies the path to
    /// the leaf but never the leaf. Rows start unflagged. Panics when out
    /// of range.
    #[inline]
    pub fn flag(&self, row: usize) -> bool {
        if row >= self.len {
            out_of_range(row, self.len);
        }
        self.lookup(row).1
    }

    /// Row `row` if it exists and is flagged, else `None`: the flag and
    /// the cells from one lookup.
    #[inline]
    pub fn flagged_row(&self, row: usize) -> Option<&[T]> {
        if row >= self.len {
            return None;
        }
        let (cells, flagged) = self.lookup(row);
        flagged.then_some(cells)
    }

    /// Leaf `chunk` (`< chunk_count()`).
    fn leaf(&self, chunk: usize) -> &Leaf<T> {
        let [g, b, c, _] = Self::locate(chunk * CHUNK_ROWS);
        &self.spine[g][b][c].0
    }

    /// Leaf `chunk`'s entry in a writable block: the spine, the group and
    /// the block on its path are each copied first if a clone shares
    /// them; the leaf is not.
    fn entry_mut(spine: &mut Node<Group<T>>, chunk: usize) -> &mut Entry<T> {
        let [g, b, c, _] = Self::locate(chunk * CHUNK_ROWS);
        let group = Arc::make_mut(&mut Arc::make_mut(spine)[g]);
        &mut Arc::make_mut(&mut group[b])[c]
    }

    /// The entry of leaf `chunk`, whose leaf is about to be written or
    /// replaced, in a writable block (see [`ChunkedRows::entry_mut`]). The
    /// leaf counts as diverged from the last fork when that fork still
    /// shares it. No `Weak` to a leaf ever exists, so a strong count above
    /// one is exactly the sharing the write undoes.
    fn entry_to_write(&mut self, chunk: usize) -> &mut Entry<T> {
        let entry = Self::entry_mut(&mut self.spine, chunk);
        if chunk < self.forked && Arc::strong_count(&entry.0) > 1 {
            self.diverged += 1;
        }
        entry
    }

    /// Mutable access to row `row`, copying the row's leaf and the path to
    /// it first where a clone shares them. Panics when out of range.
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        if row >= self.len {
            out_of_range(row, self.len);
        }
        let (r, cols) = (row % CHUNK_ROWS, self.cols);
        let leaf = Arc::make_mut(&mut self.entry_to_write(row / CHUNK_ROWS).0);
        &mut leaf[r * cols..(r + 1) * cols]
    }

    /// Sets or clears row `row`'s flag (see [`ChunkedRows::flag`]).
    /// Panics when out of range.
    pub fn set_flag(&mut self, row: usize, on: bool) {
        if row >= self.len {
            out_of_range(row, self.len);
        }
        let (_, flags) = Self::entry_mut(&mut self.spine, row / CHUNK_ROWS);
        let bit = 1u64 << (row % CHUNK_ROWS);
        if on {
            *flags |= bit;
        } else {
            *flags &= !bit;
        }
    }

    /// A new leaf whose first `rows` rows are the next values of `cells`
    /// and whose other cells are default, written once: the cells start
    /// uninitialized, so nothing is zeroed only to be overwritten. Panics
    /// when `cells` runs out first.
    fn fresh_leaf<'a, I>(&self, rows: usize, cells: &mut Cells<'a, T, I>) -> Leaf<T>
    where
        I: Iterator<Item = &'a [T]>,
    {
        let held = rows * self.cols;
        let mut fresh = Arc::<[T]>::new_uninit_slice(CHUNK_ROWS * self.cols);
        let out = Arc::get_mut(&mut fresh).expect("a new leaf is unique");
        cells.copy_next(held, |at, run| {
            out[at..at + run.len()].write_copy_of_slice(run);
        });
        out[held..].fill(MaybeUninit::new(T::default()));
        // SAFETY: every cell is initialized — `..held` by `copy_next`,
        // which hands over exactly `held` values at consecutive offsets
        // from 0 or panics, `held..` by the fill — and `fresh` is the only
        // handle to them.
        #[allow(unsafe_code)]
        unsafe {
            fresh.assume_init()
        }
    }

    /// Replaces leaf chunk `chunk` (rows `chunk * CHUNK_ROWS ..`) wholesale
    /// with the concatenation of `pieces`, which must cover exactly the
    /// rows the leaf holds now. The new leaf is written once, straight from
    /// the pieces, and the old one is released, never copied — the
    /// whole-leaf counterpart of [`ChunkedRows::row_mut`], which would
    /// first duplicate a shared leaf only for every byte of the copy to be
    /// overwritten. The rows' flags stay as they are. Panics when `chunk`
    /// is out of range or the pieces cover a different number of values.
    pub fn replace_chunk<'a>(&mut self, chunk: usize, pieces: impl IntoIterator<Item = &'a [T]>)
    where
        T: 'a,
    {
        assert!(
            chunk < self.chunk_count(),
            "chunk {chunk} out of range ({} chunks)",
            self.chunk_count()
        );
        let mut cells = Cells::new(pieces);
        let fresh = self.fresh_leaf(CHUNK_ROWS.min(self.len - chunk * CHUNK_ROWS), &mut cells);
        cells.finish();
        self.entry_to_write(chunk).0 = fresh;
    }

    /// Appends `rows` rows, the concatenation of `pieces` (`rows * cols`
    /// values), flagged when `flag` is set — the one way the table grows.
    /// The rows that fit the partial last leaf are written into it in
    /// place, through copy-on-write, so a fork taken earlier never sees
    /// them; every further leaf is written whole, straight from the
    /// pieces ([`ChunkedRows::replace_chunk`]'s fresh leaf), with its flags
    /// set as one word. A node grows by rebuilding its slice: once per
    /// `CHUNK_ROWS` rows at most. Panics when the pieces cover a different
    /// number of values (a surplus is found only after the rows are in).
    pub fn extend_rows<'a>(
        &mut self,
        rows: usize,
        pieces: impl IntoIterator<Item = &'a [T]>,
        flag: bool,
    ) where
        T: 'a,
    {
        let (cols, end) = (self.cols, self.len + rows);
        let flags = |n: usize| {
            if flag {
                u64::MAX >> (u64::BITS as usize - n)
            } else {
                0
            }
        };
        let mut cells = Cells::new(pieces);
        let r = self.len % CHUNK_ROWS;
        if r > 0 && rows > 0 {
            let n = rows.min(CHUNK_ROWS - r);
            let (leaf, bits) = self.entry_to_write(self.len / CHUNK_ROWS);
            let tail = &mut Arc::make_mut(leaf)[r * cols..(r + n) * cols];
            cells.copy_next(n * cols, |at, run| {
                tail[at..at + run.len()].copy_from_slice(run);
            });
            *bits |= flags(n) << r;
            self.len += n;
        }
        while self.len < end {
            let n = CHUNK_ROWS.min(end - self.len);
            let leaf = self.fresh_leaf(n, &mut cells);
            self.push_leaf((leaf, flags(n)));
            self.len += n;
        }
        cells.finish();
    }

    /// Appends `entry` as leaf `chunk_count()` (the table's rows fill its
    /// leaves exactly), opening a new block and group when the last ones
    /// are full — the order that keeps the tree dense (see `lookup`).
    fn push_leaf(&mut self, entry: Entry<T>) {
        let [g, b, c, _] = Self::locate(self.len);
        debug_assert_eq!(self.len % CHUNK_ROWS, 0);
        if c > 0 {
            let group = Arc::make_mut(&mut Arc::make_mut(&mut self.spine)[g]);
            group[b] = appended(&group[b], entry);
        } else if b > 0 {
            let spine = Arc::make_mut(&mut self.spine);
            spine[g] = appended(&spine[g], Arc::new([entry]));
        } else {
            self.spine = appended(&self.spine, Arc::new([Arc::new([entry])]));
        }
    }

    /// Appends a row (must be `cols` long), unflagged: a one-row
    /// [`ChunkedRows::extend_rows`].
    pub fn push_row(&mut self, values: &[T]) {
        assert_eq!(values.len(), self.cols, "row width mismatch");
        self.extend_rows(1, [values], false);
    }

    /// Drops all rows, keeping the column width. Leaves are released (a
    /// clone taken earlier keeps its own references).
    pub fn clear(&mut self) {
        *self = ChunkedRows::new(self.cols);
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// A clone that becomes the reference point of
    /// [`ChunkedRows::shared_with_fork`]: from here on the table counts
    /// each leaf it copies or replaces away from this clone.
    pub fn fork(&mut self) -> Self {
        self.forked = self.chunk_count();
        self.diverged = 0;
        self.clone()
    }

    /// Leaf chunks the last [`ChunkedRows::fork`] still shares with the
    /// table — [`ChunkedRows::shared_chunks_with`] that fork, counted as
    /// the leaves diverged instead of by a pointer walk. Exact as long as
    /// no other clone was taken since the fork (a leaf diverged, cloned
    /// again and written again would count twice).
    pub fn shared_with_fork(&self) -> usize {
        self.forked - self.diverged
    }

    /// Number of leaf chunks physically shared (same allocation) between
    /// `self` and `other` — the observable face of copy-on-write: after
    /// `let b = a.clone()`, every leaf is shared; after one row write,
    /// exactly one leaf has diverged. An `O(leaves)` pointer walk: the
    /// oracle of [`ChunkedRows::shared_with_fork`].
    pub fn shared_chunks_with(&self, other: &ChunkedRows<T>) -> usize {
        if Arc::ptr_eq(&self.spine, &other.spine) {
            return self.chunk_count().min(other.chunk_count());
        }
        let both = self.chunk_count().min(other.chunk_count());
        (0..both)
            .filter(|&c| Arc::ptr_eq(self.leaf(c), other.leaf(c)))
            .count()
    }
}

#[cold]
#[inline(never)]
#[track_caller]
fn out_of_range(row: usize, len: usize) -> ! {
    panic!("row {row} out of range (len {len})")
}

impl<T: Copy + Default + PartialEq> PartialEq for ChunkedRows<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.cols == other.cols
            && self.rows().zip(other.rows()).all(|(a, b)| a == b)
            && (0..self.len).all(|i| self.flag(i) == other.flag(i))
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
        let rows = CHUNK_ROWS * FANOUT * FANOUT + CHUNK_ROWS + 7;
        let (t, shadow) = filled(rows, 3);
        assert_eq!(t.len(), rows);
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
        t.row_mut(0).copy_from_slice(&[9.0; 4]);
        shadow[0] = vec![9.0; 4];
        t.row_mut(599)[2] = -1.0;
        shadow[599][2] = -1.0;
        t.row_mut(257).copy_from_slice(&[7.0; 4]);
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
        t.row_mut(CHUNK_ROWS * 2 + 3).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(t.shared_chunks_with(&snap), chunks - 1);
        // Writing another row of the SAME chunk diverges nothing more.
        t.row_mut(CHUNK_ROWS * 2 + 4).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(t.shared_chunks_with(&snap), chunks - 1);
        t.row_mut(0).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(t.shared_chunks_with(&snap), chunks - 2);
    }

    #[test]
    fn replace_chunk_swaps_one_chunk_and_spares_clones() {
        let rows = CHUNK_ROWS * FANOUT * FANOUT + CHUNK_ROWS + 9;
        let (mut t, shadow) = filled(rows, 2);
        let frozen = t.clone();
        let chunks = t.chunk_count();
        // A full chunk in the first spine block, given in two pieces, and
        // the ragged last chunk.
        let full = vec![-1.0; CHUNK_ROWS * 2];
        t.replace_chunk(3, [&full[..5], &full[5..]]);
        t.replace_chunk(chunks - 1, [&[-2.0; 9 * 2][..]]);
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
        t.replace_chunk(1, [&[0.0; 4 * 2][..]]);
    }

    #[test]
    #[should_panic(expected = "chunk row count mismatch")]
    fn replace_chunk_rejects_too_many_values() {
        let (mut t, _) = filled(CHUNK_ROWS + 5, 2);
        t.replace_chunk(1, [&[0.0; 5 * 2][..], &[0.0; 1]]);
    }

    #[test]
    fn the_divergence_count_matches_the_pointer_walk() {
        // Writes, pushes into a shared ragged leaf, fresh leaves and
        // whole-leaf replacements, across spine blocks: after each, the
        // counted share equals the walk against the last fork.
        let (mut t, _) = filled(CHUNK_ROWS * FANOUT * FANOUT + 3 * CHUNK_ROWS + 5, 2);
        let mut fork = t.fork();
        assert_eq!(t.shared_with_fork(), t.chunk_count());
        let mut state = 7u64;
        for step in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            match step % 6 {
                0 | 1 => t.row_mut(pick % t.len()).copy_from_slice(&[1.0, 2.0]),
                5 => t.set_flag(pick % t.len(), pick.is_multiple_of(2)),
                2 => t.push_row(&[3.0, 4.0]),
                3 => {
                    let chunk = pick % t.chunk_count();
                    let held = CHUNK_ROWS.min(t.len() - chunk * CHUNK_ROWS);
                    t.replace_chunk(chunk, [&vec![5.0; held * 2][..]]);
                }
                _ => {
                    if pick.is_multiple_of(3) {
                        fork = t.fork();
                    }
                }
            }
            assert_eq!(
                t.shared_with_fork(),
                t.shared_chunks_with(&fork),
                "step {step}"
            );
        }
        t.clear();
        assert_eq!(t.shared_with_fork(), t.shared_chunks_with(&fork));
    }

    /// Cell `j` of row `i` in the append tests: distinct per cell.
    fn cell(i: usize, j: usize) -> f64 {
        (i * 7 + j) as f64 + 0.25
    }

    #[test]
    fn extend_rows_matches_a_push_row_oracle() {
        // Appends onto a partial leaf, from and to exact leaf boundaries,
        // and across a block (`FANOUT` leaves) and a group (`FANOUT²`
        // leaves) boundary, the rows cut into uneven pieces. Every cell
        // and flag must read as a `push_row` + `set_flag` oracle's; a fork
        // taken before the append keeps its bits; and the counted share
        // equals the pointer walk.
        let cols = 3;
        let row = |i: usize| -> Vec<f64> { (0..cols).map(|j| cell(i, j)).collect() };
        let block = CHUNK_ROWS * FANOUT;
        let group = block * FANOUT;
        let cases = [
            (0, 1),
            (5, 20),
            (5, CHUNK_ROWS - 5),
            (CHUNK_ROWS, CHUNK_ROWS),
            (CHUNK_ROWS - 1, 2 * CHUNK_ROWS + 2),
            (block - 10, 100),
            (block, 3 * CHUNK_ROWS),
            (group - CHUNK_ROWS - 7, 2 * CHUNK_ROWS + 20),
            (group, 1),
            (7, 0),
        ];
        for (case, (start, rows)) in cases.into_iter().enumerate() {
            let flag = case % 2 == 0;
            let mut t = ChunkedRows::new(cols);
            let mut oracle = ChunkedRows::new(cols);
            for i in 0..start {
                t.push_row(&row(i));
            }
            for i in 0..start + rows {
                oracle.push_row(&row(i));
                oracle.set_flag(i, flag && i >= start);
            }
            // A flag already set in the partial leaf must survive.
            if start > 0 {
                t.set_flag(start - 1, true);
                oracle.set_flag(start - 1, true);
            }
            let fork = t.fork();
            let frozen = fork.clone();
            let values: Vec<f64> = (start..start + rows).flat_map(row).collect();
            let mut pieces = Vec::new();
            let mut lo = 0;
            for cut in [1, 2, 7, 64, 200].into_iter().cycle() {
                if lo == values.len() {
                    break;
                }
                let hi = values.len().min(lo + cut);
                pieces.push(&values[lo..hi]);
                lo = hi;
            }
            t.extend_rows(rows, pieces, flag);
            assert!(t == oracle, "case {case}: cells or flags differ");
            assert!(fork == frozen, "case {case}: the fork changed");
            assert_eq!(fork.len(), start);
            assert_eq!(
                t.shared_with_fork(),
                t.shared_chunks_with(&fork),
                "case {case}"
            );
            let copied = usize::from(rows > 0 && start % CHUNK_ROWS != 0);
            assert_eq!(
                t.shared_with_fork(),
                fork.chunk_count() - copied,
                "case {case}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "chunk row count mismatch")]
    fn extend_rows_rejects_a_short_batch() {
        let (mut t, _) = filled(CHUNK_ROWS - 2, 2);
        t.extend_rows(5, [&[0.0; 4 * 2][..]], true);
    }

    #[test]
    #[should_panic(expected = "chunk row count mismatch")]
    fn extend_rows_rejects_a_surplus() {
        let (mut t, _) = filled(3, 2);
        t.extend_rows(2, [&[0.0; 2 * 2][..], &[1.0]], true);
    }

    #[test]
    fn clones_are_immutable_under_source_mutation() {
        let (mut t, shadow) = filled(CHUNK_ROWS * 3, 3);
        let frozen = t.clone();
        for i in 0..t.len() {
            t.row_mut(i).copy_from_slice(&[-1.0, -2.0, -3.0]);
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
    fn flags_live_beside_the_leaves() {
        let rows = CHUNK_ROWS * FANOUT + CHUNK_ROWS + 3;
        let (mut t, shadow) = filled(rows, 2);
        assert!((0..rows).all(|i| !t.flag(i)));
        assert_eq!(t.flagged_row(4), None);
        let frozen = t.fork();
        let flagged = [0, 4, CHUNK_ROWS - 1, CHUNK_ROWS, rows - 1];
        for &i in &flagged {
            t.set_flag(i, true);
        }
        // Setting a flag copies no leaf.
        assert_eq!(t.shared_chunks_with(&frozen), t.chunk_count());
        assert_eq!(t.shared_with_fork(), t.chunk_count());
        for (i, row) in shadow.iter().enumerate() {
            let want = flagged.contains(&i);
            assert_eq!(t.flag(i), want, "row {i}");
            assert!(!frozen.flag(i), "frozen row {i} flagged");
            let expect = want.then_some(row.as_slice());
            assert_eq!(t.flagged_row(i), expect, "row {i}");
        }
        assert_eq!(t.flagged_row(rows), None);
        // Flags survive a row write and a whole-leaf replacement, and a
        // cleared flag reads as never set.
        t.row_mut(4).copy_from_slice(&[9.0, 9.0]);
        t.replace_chunk(1, [&vec![-1.0; CHUNK_ROWS * 2][..]]);
        t.set_flag(0, false);
        assert!(!t.flag(0) && t.flag(4) && t.flag(CHUNK_ROWS) && t.flag(CHUNK_ROWS - 1));
        assert_eq!(t.flagged_row(CHUNK_ROWS), Some(&[-1.0, -1.0][..]));
        assert!(t != frozen && t.clone() == t);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flag_out_of_range_panics() {
        let (mut t, _) = filled(10, 2);
        t.set_flag(10, true);
    }

    #[test]
    fn bool_rows_work() {
        let mut t: ChunkedRows<bool> = ChunkedRows::new(1);
        t.extend_rows(300, [&[false; 300][..]], false);
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
