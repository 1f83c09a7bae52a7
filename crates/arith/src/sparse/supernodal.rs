//! The supernodal kernel of [`SymbolicLdl`](super::SymbolicLdl): a
//! left-looking LDLᵀ over dense row-major panels, one per supernode.
//!
//! A fundamental supernode is a chain of consecutive columns `f..l` of the
//! factor in which every column is the only child of the next one and all of
//! them share the row structure below `l`; the analysis postorders the
//! elimination tree so such chains are consecutive. [`relax`] then merges
//! chains whose structures nearly agree, storing a few explicit zeros. A
//! supernode's part of `L` is a dense trapezoid: the rows `f..l` (its own
//! columns) followed by the rows of its structure below `l`. The numeric
//! phase stores it as one row-major panel (`nrows × ncols`, the upper
//! triangle of the top square unused) and factors supernodes in column
//! order:
//!
//! 1. gather the supernode's columns of `A` (plus the damping) into the
//!    zeroed panel;
//! 2. subtract the update of every descendant supernode whose rows reach
//!    these columns, computed by the register-tiled [`update`] kernel and
//!    scattered through relative row indices;
//! 3. factor the panel in blocks of [`NB`] columns: each block column first
//!    receives the update of the panel's earlier columns through the same
//!    kernel, then is factored column by column.
//!
//! Descendants are found with CHOLMOD's linked lists (Chen, Davis, Hager and
//! Rajamanickam, ACM TOMS 2008): a factored supernode waits in the list of
//! the supernode holding its next unprocessed row, and moves on after each
//! update. Every step is a fixed function of the pattern, so a given
//! pattern always performs the same floating-point operations in the same
//! order.

use super::NONE;

/// Rows of the update kernel's register tile.
const MR: usize = 4;

/// Columns of the update kernel's register tile.
const NR: usize = 8;

/// Columns of the update whose scaled source rows are packed at once: the
/// packed block (`k × NC`) stays in cache while every source row streams
/// past it.
const NC: usize = 64;

/// Source width below which [`update`] skips the register tiles.
const NARROW: usize = 4;

/// Block width of the in-panel factorization.
const NB: usize = 32;

/// The symbolic side of the supernodal kernel: the supernode partition,
/// each supernode's row structure, the panel layout and where each entry of
/// `A` lands in it.
#[derive(Debug, Clone)]
pub(super) struct Supernodes {
    /// First column of each supernode, plus `n` at the end.
    start: Vec<usize>,
    /// The supernode of each column.
    of_col: Vec<usize>,
    /// Row structure of supernode `s`: `rows[row_ptr[s]..row_ptr[s + 1]]`,
    /// ascending, beginning with the supernode's own columns.
    row_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Offset of each supernode's panel in the panel buffer (plus the total
    /// at the end).
    panel_ptr: Vec<usize>,
    /// Off-diagonal entries of `A` by supernode: `gather_off[g]` (an offset
    /// into the supernode's panel) receives `values[gather_pos[g]]`, for
    /// `g` in `gather_ptr[s]..gather_ptr[s + 1]`.
    gather_ptr: Vec<usize>,
    gather_off: Vec<u32>,
    gather_pos: Vec<u32>,
}

/// Numeric buffers of the supernodal kernel: the panels and the scratch of
/// the descendant lists and the update kernel.
#[derive(Debug, Clone)]
pub(super) struct Panels {
    values: Vec<f64>,
    /// Position of each row in the row structure of the supernode being
    /// assembled.
    relpos: Vec<usize>,
    /// Descendant lists: `head[s]` starts the list of factored supernodes
    /// whose next unprocessed row lies in `s`, `next` links them, and
    /// `cursor[d]` is that row's position in `d`'s row structure.
    head: Vec<usize>,
    next: Vec<usize>,
    cursor: Vec<usize>,
    /// Update-kernel scratch: the packed scaled rows, the target row
    /// offsets and the target columns.
    packed: Vec<f64>,
    row_off: Vec<usize>,
    col_map: Vec<usize>,
}

impl Supernodes {
    /// Groups the columns into relaxed supernodes and lays out their
    /// panels. `parent` and `counts` are the (postordered) elimination tree
    /// and the strictly-lower column counts; `a_col_ptr`/`a_row`/`a_val_pos`
    /// the permuted upper triangle of `A` by column.
    pub(super) fn new(
        parent: &[usize],
        counts: &[usize],
        a_col_ptr: &[usize],
        a_row: &[usize],
        a_val_pos: &[usize],
    ) -> Self {
        let n = parent.len();
        let mut children = vec![0usize; n];
        for &p in parent {
            if p != NONE {
                children[p] += 1;
            }
        }
        // Fundamental supernodes: column j extends the supernode of j - 1
        // when j - 1's parent is j, j has no other child, and the
        // structures agree.
        let mut fundamental: Vec<usize> = (0..n)
            .filter(|&j| {
                j == 0 || parent[j - 1] != j || children[j] != 1 || counts[j - 1] != counts[j] + 1
            })
            .collect();
        fundamental.push(n);
        let start = relax(&fundamental, parent, counts);
        let nsuper = start.len() - 1;
        let mut of_col = vec![0usize; n];
        let mut row_ptr = vec![0usize; nsuper + 1];
        let mut panel_ptr = vec![0usize; nsuper + 1];
        for s in 0..nsuper {
            let (f, l) = (start[s], start[s + 1]);
            of_col[f..l].fill(s);
            let nrows = (l - f) + counts[l - 1];
            row_ptr[s + 1] = row_ptr[s] + nrows;
            panel_ptr[s + 1] = panel_ptr[s] + nrows * (l - f);
        }

        // Row structures: the supernode's own columns, then every row k
        // whose row subtree in the supernodal elimination tree reaches s
        // (the union of its columns' structures). Rows are visited in
        // ascending order, so each list comes out sorted.
        let mut rows = vec![0usize; row_ptr[nsuper]];
        let mut fill: Vec<usize> = (0..nsuper).map(|s| row_ptr[s]).collect();
        for s in 0..nsuper {
            for j in start[s]..start[s + 1] {
                rows[fill[s]] = j;
                fill[s] += 1;
            }
        }
        let super_parent: Vec<usize> = (0..nsuper)
            .map(|s| match parent[start[s + 1] - 1] {
                NONE => NONE,
                p => of_col[p],
            })
            .collect();
        let mut flag = vec![NONE; nsuper];
        for k in 0..n {
            flag[of_col[k]] = k;
            for &i in &a_row[a_col_ptr[k]..a_col_ptr[k + 1]] {
                let mut s = of_col[i];
                while flag[s] != k {
                    flag[s] = k;
                    rows[fill[s]] = k;
                    fill[s] += 1;
                    s = super_parent[s];
                }
            }
        }
        debug_assert!((0..nsuper).all(|s| fill[s] == row_ptr[s + 1]));

        // Scatter map of the off-diagonal entries: upper entry (i, k), i < k,
        // is the lower entry (k, i) of column i.
        let mut gather_ptr = vec![0usize; nsuper + 1];
        for k in 0..n {
            for &i in &a_row[a_col_ptr[k]..a_col_ptr[k + 1]] {
                gather_ptr[of_col[i] + 1] += 1;
            }
        }
        for s in 0..nsuper {
            gather_ptr[s + 1] += gather_ptr[s];
        }
        let mut gather_off = vec![0u32; gather_ptr[nsuper]];
        let mut gather_pos = vec![0u32; gather_ptr[nsuper]];
        let mut cursor = gather_ptr.clone();
        for k in 0..n {
            for p in a_col_ptr[k]..a_col_ptr[k + 1] {
                let i = a_row[p];
                let s = of_col[i];
                let ncols = start[s + 1] - start[s];
                let structure = &rows[row_ptr[s]..row_ptr[s + 1]];
                let local = structure
                    .binary_search(&k)
                    .expect("A entry inside L's pattern");
                gather_off[cursor[s]] =
                    u32::try_from(local * ncols + (i - start[s])).expect("panel fits u32");
                gather_pos[cursor[s]] = u32::try_from(a_val_pos[p]).expect("pattern fits u32");
                cursor[s] += 1;
            }
        }
        Supernodes {
            start,
            of_col,
            row_ptr,
            rows,
            panel_ptr,
            gather_ptr,
            gather_off,
            gather_pos,
        }
    }

    /// The number of supernodes.
    fn count(&self) -> usize {
        self.start.len() - 1
    }

    /// Allocates the numeric buffers for this partition.
    pub(super) fn panels(&self) -> Panels {
        let nsuper = self.count();
        Panels {
            values: vec![0.0; self.panel_ptr[nsuper]],
            relpos: vec![0; self.of_col.len()],
            head: vec![NONE; nsuper],
            next: vec![NONE; nsuper],
            cursor: vec![0; nsuper],
            packed: Vec::new(),
            row_off: Vec::new(),
            col_map: Vec::new(),
        }
    }

    /// Numeric LDLᵀ of `A + diag(diag_add)` into `num` and the pivots `d`.
    /// `diag_pos[k]` locates permuted column `k`'s diagonal in `values`
    /// and `perm[k]` its damping entry. Returns `false` at the first pivot
    /// that is not strictly positive and finite.
    pub(super) fn factor(
        &self,
        values: &[f64],
        diag_add: &[f64],
        diag_pos: &[usize],
        perm: &[usize],
        num: &mut Panels,
        d: &mut [f64],
    ) -> bool {
        num.head.fill(NONE);
        for s in 0..self.count() {
            let (f, l) = (self.start[s], self.start[s + 1]);
            let ncols = l - f;
            let structure = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let nrows = structure.len();
            for (i, &r) in structure.iter().enumerate() {
                num.relpos[r] = i;
            }
            let base = self.panel_ptr[s];
            {
                let panel = &mut num.values[base..self.panel_ptr[s + 1]];
                panel.fill(0.0);
                let entries = self.gather_ptr[s]..self.gather_ptr[s + 1];
                for (&off, &pos) in self.gather_off[entries.clone()]
                    .iter()
                    .zip(&self.gather_pos[entries])
                {
                    panel[off as usize] = values[pos as usize];
                }
                for c in 0..ncols {
                    panel[c * ncols + c] = values[diag_pos[f + c]] + diag_add[perm[f + c]];
                }
            }

            // Updates from the descendants whose next rows fall in f..l.
            let mut desc = std::mem::replace(&mut num.head[s], NONE);
            while desc != NONE {
                let after = num.next[desc];
                let (df, dl) = (self.start[desc], self.start[desc + 1]);
                let dk = dl - df;
                let drows = &self.rows[self.row_ptr[desc]..self.row_ptr[desc + 1]];
                let p1 = num.cursor[desc];
                let p2 = p1 + drows[p1..].partition_point(|&r| r < l);
                num.row_off.clear();
                num.row_off
                    .extend(drows[p1..].iter().map(|&r| num.relpos[r] * ncols));
                num.col_map.clear();
                num.col_map.extend(drows[p1..p2].iter().map(|&r| r - f));
                let dbase = self.panel_ptr[desc];
                update(
                    &mut num.values[dbase..self.panel_ptr[s + 1]],
                    p1 * dk,
                    dk,
                    dk,
                    &d[df..dl],
                    &num.row_off,
                    &num.col_map,
                    base - dbase,
                    &mut num.packed,
                );
                self.relink(desc, p2, &mut num.head, &mut num.next, &mut num.cursor);
                desc = after;
            }

            if !factor_panel(
                &mut num.values[base..self.panel_ptr[s + 1]],
                nrows,
                ncols,
                &mut d[f..l],
                &mut num.packed,
                &mut num.row_off,
                &mut num.col_map,
            ) {
                return false;
            }
            self.relink(s, ncols, &mut num.head, &mut num.next, &mut num.cursor);
        }
        true
    }

    /// Files supernode `s` under the supernode holding its row at position
    /// `p`, or retires it once its rows are exhausted.
    fn relink(
        &self,
        s: usize,
        p: usize,
        head: &mut [usize],
        next: &mut [usize],
        cursor: &mut [usize],
    ) {
        let structure = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
        if p < structure.len() {
            let target = self.of_col[structure[p]];
            cursor[s] = p;
            next[s] = head[target];
            head[target] = s;
        }
    }

    /// Solves `L D Lᵀ x = b` in place on the permuted right-hand side `x`,
    /// with `tmp` as scratch of length ≥ the widest supernode.
    pub(super) fn solve(&self, num: &Panels, d: &[f64], x: &mut [f64], tmp: &mut [f64]) {
        let nsuper = self.count();
        for s in 0..nsuper {
            let (f, l) = (self.start[s], self.start[s + 1]);
            let ncols = l - f;
            let panel = &num.values[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let structure = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            for i in 1..ncols {
                let row = &panel[i * ncols..i * ncols + i];
                x[f + i] -= dot(row, &x[f..f + i]);
            }
            let solved = &mut tmp[..ncols];
            solved.copy_from_slice(&x[f..l]);
            for (i, &r) in structure.iter().enumerate().skip(ncols) {
                x[r] -= dot(&panel[i * ncols..(i + 1) * ncols], solved);
            }
        }
        for (xk, dk) in x.iter_mut().zip(d) {
            *xk /= dk;
        }
        for s in (0..nsuper).rev() {
            let (f, l) = (self.start[s], self.start[s + 1]);
            let ncols = l - f;
            let panel = &num.values[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let structure = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let sums = &mut tmp[..ncols];
            sums.fill(0.0);
            for (i, &r) in structure.iter().enumerate().skip(ncols) {
                axpy(sums, x[r], &panel[i * ncols..(i + 1) * ncols]);
            }
            for i in (0..ncols).rev() {
                let xi = x[f + i] - sums[i];
                x[f + i] = xi;
                axpy(&mut sums[..i], xi, &panel[i * ncols..i * ncols + i]);
            }
        }
    }

    /// The widest supernode (the solve's scratch length).
    pub(super) fn max_width(&self) -> usize {
        self.start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Relaxed amalgamation (CHOLMOD's rule and defaults): merges each
/// fundamental supernode into its parent when the parent is the next
/// supernode and the merged panel stays dense enough, trading explicit
/// zeros for wider panels. `fundamental` holds the first column of every
/// fundamental supernode plus `n`; the result has the same form. Parents
/// come after their children, so one descending pass grows every merged
/// supernode downward from its top.
fn relax(fundamental: &[usize], parent: &[usize], counts: &[usize]) -> Vec<usize> {
    let mut starts = vec![*fundamental.last().unwrap()];
    // The merged supernode being grown: columns, rows, explicit zeros and
    // stored entries of its lower trapezoid.
    let (mut ncols, mut nrows, mut zeros, mut entries) = (0usize, 0usize, 0usize, 0usize);
    for s in (0..fundamental.len() - 1).rev() {
        let (f, l) = (fundamental[s], fundamental[s + 1]);
        let width = l - f;
        let actual: usize = counts[f..l].iter().map(|&c| c + 1).sum();
        if ncols > 0 && parent[l - 1] == l {
            let merged_rows = width + nrows;
            let slots = width * merged_rows - width * (width - 1) / 2;
            let merged_zeros = zeros + slots - actual;
            let merged_entries = entries + slots;
            let ratio = merged_zeros as f64 / merged_entries as f64;
            let merged_cols = ncols + width;
            if merged_cols <= 4
                || (merged_cols <= 16 && ratio < 0.8)
                || (merged_cols <= 48 && ratio < 0.1)
                || ratio < 0.05
            {
                *starts.last_mut().unwrap() = f;
                (ncols, nrows, zeros, entries) =
                    (merged_cols, merged_rows, merged_zeros, merged_entries);
                continue;
            }
        }
        starts.push(f);
        (ncols, nrows, zeros, entries) = (width, width + counts[l - 1], 0, actual);
    }
    starts.reverse();
    starts
}

/// `Σ a[t]·b[t]` over four interleaved partial sums.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0; 4];
    let (a4, a_rest) = a.split_at(a.len() / 4 * 4);
    let (b4, b_rest) = b[..a.len()].split_at(a4.len());
    for (x, y) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        for t in 0..4 {
            acc[t] += x[t] * y[t];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_rest.iter().zip(b_rest) {
        sum += x * y;
    }
    sum
}

/// `y += alpha · x`.
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Factors one assembled panel (`nrows × ncols`, row-major) in place:
/// unit-lower `L` below the diagonal, pivots into `d`. Block columns of
/// [`NB`] first take the update of all earlier columns through [`update`],
/// then are factored right-looking column by column.
fn factor_panel(
    panel: &mut [f64],
    nrows: usize,
    ncols: usize,
    d: &mut [f64],
    packed: &mut Vec<f64>,
    row_off: &mut Vec<usize>,
    col_map: &mut Vec<usize>,
) -> bool {
    let mut pivot_row = [0.0; NB];
    for c0 in (0..ncols).step_by(NB) {
        let c1 = (c0 + NB).min(ncols);
        if c0 > 0 {
            row_off.clear();
            row_off.extend((c0..nrows).map(|r| r * ncols));
            col_map.clear();
            col_map.extend(c0..c1);
            update(
                panel,
                c0 * ncols,
                ncols,
                c0,
                &d[..c0],
                row_off,
                col_map,
                0,
                packed,
            );
        }
        for c in c0..c1 {
            let dc = panel[c * ncols + c];
            // A NaN pivot fails both comparisons, so non-finite values are
            // rejected along with non-positive ones.
            if dc <= 0.0 || !dc.is_finite() {
                return false;
            }
            d[c] = dc;
            // Column c of the block's remaining rows, before scaling: the
            // multipliers of the rank-one update of columns c+1..c1.
            let width = c1 - c - 1;
            for (t, v) in pivot_row[..width].iter_mut().enumerate() {
                *v = panel[(c + 1 + t) * ncols + c];
            }
            for i in c + 1..nrows {
                let row = &mut panel[i * ncols..(i + 1) * ncols];
                let lic = row[c] / dc;
                row[c] = lic;
                let reach = (i.min(c1 - 1) + 1).saturating_sub(c + 1);
                axpy(&mut row[c + 1..c + 1 + reach], -lic, &pivot_row[..reach]);
            }
        }
    }
    true
}

/// The dense update kernel: `C ← C − S·diag(d)·S[..m2]ᵀ` on the lower
/// trapezoid `i ≥ j` of an `m1 × m2` block, with `m1 = row_off.len()` and
/// `m2 = col_map.len()`.
///
/// Source row `i` is `buf[src + i·ld..][..k]`; entry `(i, j)` of the block
/// lives at `buf[dst + row_off[i] + col_map[j]]` (relative-index scatter).
/// Source rows and targets share one buffer, so the kernel reads a tile's
/// sources before writing its targets; callers keep the two regions
/// disjoint.
///
/// The scaled rows `d ⊙ S[j]` are packed in column blocks of [`NC`], laid
/// out `k × NR` per register tile, and every [`MR`] source rows are
/// multiplied against each packed tile in registers.
#[allow(clippy::too_many_arguments)]
fn update(
    buf: &mut [f64],
    src: usize,
    ld: usize,
    k: usize,
    d: &[f64],
    row_off: &[usize],
    col_map: &[usize],
    dst: usize,
    packed: &mut Vec<f64>,
) {
    let (m1, m2) = (row_off.len(), col_map.len());
    if k < NARROW {
        // Too few columns to amortize packing and tiles: one pass over the
        // block, one dot of length k per entry.
        packed.clear();
        for j in 0..m2 {
            let row = &buf[src + j * ld..][..k];
            packed.extend(row.iter().zip(d).map(|(&l, &dc)| dc * l));
        }
        for i in 0..m1 {
            let mut source = [0.0; NARROW];
            source[..k].copy_from_slice(&buf[src + i * ld..][..k]);
            let target = dst + row_off[i];
            for (w, &col) in packed.chunks_exact(k).zip(&col_map[..m2.min(i + 1)]) {
                let mut sum = 0.0;
                for (a, b) in source.iter().zip(w) {
                    sum += a * b;
                }
                buf[target + col] -= sum;
            }
        }
        return;
    }
    for jc in (0..m2).step_by(NC) {
        let nc = NC.min(m2 - jc);
        let tiles = nc.div_ceil(NR);
        packed.clear();
        packed.resize(tiles * k * NR, 0.0);
        for (b, tile) in packed.chunks_exact_mut(k * NR).enumerate() {
            for jj in 0..NR.min(nc - b * NR) {
                let row = &buf[src + (jc + b * NR + jj) * ld..][..k];
                for ((slot, &l), &dc) in tile.iter_mut().skip(jj).step_by(NR).zip(row).zip(d) {
                    *slot = dc * l;
                }
            }
        }
        // Rows above jc only meet columns to their right: nothing to do.
        for i0 in (jc..m1).step_by(MR) {
            let sources: [usize; MR] = std::array::from_fn(|t| src + (i0 + t).min(m1 - 1) * ld);
            for (b, tile) in packed.chunks_exact(k * NR).enumerate() {
                let j0 = jc + b * NR;
                if i0 + MR <= j0 {
                    break; // this and later tiles lie above the diagonal
                }
                let acc = tile_product(buf, sources, k, tile);
                for (t, acc_row) in acc.iter().enumerate() {
                    let i = i0 + t;
                    if i >= m1 {
                        break;
                    }
                    let last = (i + 1).min(jc + nc);
                    for (j, a) in (j0..last).zip(acc_row) {
                        buf[dst + row_off[i] + col_map[j]] -= a;
                    }
                }
            }
        }
    }
}

/// One register tile: `acc[t][jj] = Σ_c S[t][c] · tile[c][jj]` for the
/// [`MR`] source rows starting at `sources`.
#[inline(always)]
fn tile_product(buf: &[f64], sources: [usize; MR], k: usize, tile: &[f64]) -> [[f64; NR]; MR] {
    let a0 = &buf[sources[0]..sources[0] + k];
    let a1 = &buf[sources[1]..sources[1] + k];
    let a2 = &buf[sources[2]..sources[2] + k];
    let a3 = &buf[sources[3]..sources[3] + k];
    let mut acc = [[0.0; NR]; MR];
    for ((((w, &x0), &x1), &x2), &x3) in tile.chunks_exact(NR).zip(a0).zip(a1).zip(a2).zip(a3) {
        let x = [x0, x1, x2, x3];
        for t in 0..MR {
            for jj in 0..NR {
                acc[t][jj] += x[t] * w[jj];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::super::{JtjPattern, KernelSymbolic, LdlKernel, PermutedPattern, SymbolicLdl};
    use super::NONE;

    #[test]
    fn the_supernodes_partition_the_columns_and_cover_the_factor_pattern() {
        // Four 25-column chains coupled through their last columns, and a
        // dense 30-variable block: one-column supernodes, chains, and a
        // wide root supernode.
        let mut patterns: Vec<Vec<usize>> = Vec::new();
        for g in 0..4 {
            for i in 0..24 {
                patterns.push(vec![25 * g + i, 25 * g + i + 1]);
            }
        }
        patterns.push(vec![24, 49, 74, 99]);
        patterns.push((90..120).collect());
        let jtj = JtjPattern::new(120, patterns);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic =
            SymbolicLdl::analyze_with_kernel(120, row_ptr, col_idx, LdlKernel::Supernodal);
        let KernelSymbolic::Supernodal(sn) = &symbolic.kernel else {
            panic!("the kernel asked for");
        };
        // The factor's column patterns under the supernodal ordering, by
        // elimination-tree reach.
        let permuted = PermutedPattern::new(row_ptr, col_idx, symbolic.permutation());
        let mut columns: Vec<Vec<usize>> = vec![Vec::new(); 120];
        let mut flag = vec![NONE; 120];
        for k in 0..120 {
            flag[k] = k;
            for &i in &permuted.a_row[permuted.a_col_ptr[k]..permuted.a_col_ptr[k + 1]] {
                let mut j = i;
                while flag[j] != k {
                    columns[j].push(k);
                    flag[j] = k;
                    j = permuted.parent[j];
                }
            }
        }
        assert_eq!(sn.start[0], 0);
        assert_eq!(*sn.start.last().unwrap(), 120);
        assert!(sn.start.windows(2).all(|w| w[0] < w[1]));
        assert!(
            sn.max_width() >= 30,
            "the dense block forms a wide supernode"
        );
        for t in 0..sn.count() {
            let (f, l) = (sn.start[t], sn.start[t + 1]);
            let structure = &sn.rows[sn.row_ptr[t]..sn.row_ptr[t + 1]];
            assert!(structure.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(&structure[..l - f], &(f..l).collect::<Vec<_>>()[..]);
            for j in f..l {
                assert_eq!(sn.of_col[j], t);
                let below = &structure[j - f + 1..];
                assert!(
                    columns[j].iter().all(|r| below.binary_search(r).is_ok()),
                    "column {j} outside its supernode's structure"
                );
            }
            // The last column carries the supernode's structure exactly.
            assert_eq!(columns[l - 1], structure[l - f..], "supernode {t}");
            assert_eq!(
                sn.panel_ptr[t + 1] - sn.panel_ptr[t],
                structure.len() * (l - f)
            );
        }
    }
}
