//! Deterministic parallel reductions shared by averager / statistics /
//! climatology.
//!
//! Floating-point addition is not associative, so a naive parallel sum
//! changes value with the worker count — poison for regression tests, for
//! cached pipeline results, and for the hyperwall protocol where every
//! panel must derive the same color scale. Every reduction here is instead
//! computed as **fixed-size block partials merged in a fixed pairwise tree
//! order**: block boundaries are a function of the array length only
//! ([`BLOCK`] lanes), each block's partial is accumulated serially with
//! Neumaier-compensated summation ([`Neumaier`]), and the merge tree
//! depends only on the block count. Threads race to *fill* slots of a
//! pre-sized partial vector, never to accumulate into shared state, so the
//! result is bit-identical for any `RAYON_NUM_THREADS` — proven across
//! {1, 2, 8}-thread pools in `crates/cdat/tests/expr_fusion.rs`.
//!
//! Axis reductions ([`weighted_mean_axis`], [`mean_axis`],
//! [`selected_mean_axis`]) take the other route to the same guarantee:
//! each output cell's accumulation runs serially in ascending axis order —
//! the exact order (and precision) the pre-fusion eager code used, so
//! results are additionally *bit-identical to the seed implementation* —
//! and parallelism comes from distributing independent output cells.
//! [`order_stats_axis`] is the one order-statistics kernel: percentiles,
//! min and max from a single gather and sort per cell, over fixed
//! [`BLOCK`]-cell ranges of the output; [`percentile_axis`], [`min_axis`]
//! and [`max_axis`] are planes of it.

use cdms::{CdmsError, MaskedArray, Result};
use rayon::prelude::*;

/// Lanes per partial-sum block, and output cells per [`order_stats_axis`]
/// block. Fixed — never derived from the worker count — so the partial
/// layout (and thus the merged result) is a function of the data alone.
pub const BLOCK: usize = 4096;

/// Neumaier-compensated accumulator: tracks a running compensation term so
/// adding many small values to a large sum does not lose them. Unlike
/// plain Kahan, the compensation also survives when the addend exceeds the
/// running sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    /// Adds one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Merges another accumulator into this one. Always called in the same
    /// tree order by `blocked`, so the operation need not be associative.
    #[inline]
    pub fn merge(&mut self, o: &Neumaier) {
        self.add(o.sum);
        self.comp += o.comp;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Count + compensated Σv + Σv² over valid lanes: everything a mean /
/// population-variance / standardize needs from one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct MomentSums {
    /// Number of valid lanes.
    pub n: u64,
    sum: Neumaier,
    sum_sq: Neumaier,
}

impl MomentSums {
    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum.add(v);
        self.sum_sq.add(v * v);
    }

    pub(crate) fn merged(mut self, o: MomentSums) -> MomentSums {
        self.n += o.n;
        self.sum.merge(&o.sum);
        self.sum_sq.merge(&o.sum_sq);
        self
    }

    /// Mean of valid lanes, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some(self.sum.value() / self.n as f64)
    }

    /// Population variance of valid lanes (clamped at 0), `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        let n = self.n as f64;
        let mean = self.mean()?;
        Some((self.sum_sq.value() / n - mean * mean).max(0.0))
    }

    /// Population standard deviation, `None` when empty.
    pub fn std(&self) -> Option<f64> {
        Some(self.variance()?.sqrt())
    }
}

/// All the pairwise sums correlation and RMSE need, gathered over mutually
/// valid lanes in one shared pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairSums {
    /// Number of mutually valid pairs.
    pub n: u64,
    sx: Neumaier,
    sy: Neumaier,
    sxx: Neumaier,
    syy: Neumaier,
    sxy: Neumaier,
    /// Σ(x−y)² — the RMSE numerator.
    sdd: Neumaier,
}

impl PairSums {
    #[inline]
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx.add(x);
        self.sy.add(y);
        self.sxx.add(x * x);
        self.syy.add(y * y);
        self.sxy.add(x * y);
        let d = x - y;
        self.sdd.add(d * d);
    }

    fn merged(mut self, o: PairSums) -> PairSums {
        self.n += o.n;
        self.sx.merge(&o.sx);
        self.sy.merge(&o.sy);
        self.sxx.merge(&o.sxx);
        self.syy.merge(&o.syy);
        self.sxy.merge(&o.sxy);
        self.sdd.merge(&o.sdd);
        self
    }

    /// Pearson correlation over the pairs; `None` when `n < 2` or either
    /// variance is zero.
    pub fn correlation(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let nf = self.n as f64;
        let (sx, sy) = (self.sx.value(), self.sy.value());
        let cov = self.sxy.value() / nf - (sx / nf) * (sy / nf);
        let vx = (self.sxx.value() / nf - (sx / nf).powi(2)).max(0.0);
        let vy = (self.syy.value() / nf - (sy / nf).powi(2)).max(0.0);
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }

    /// Root-mean-square difference over the pairs; `None` when empty.
    pub fn rmse(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some((self.sdd.value() / self.n as f64).sqrt())
    }
}

/// The lane range of block `b` over `n` lanes.
#[inline]
fn block_range(b: usize, n: usize) -> std::ops::Range<usize> {
    let lo = b * BLOCK;
    lo..(lo + BLOCK).min(n)
}

/// Blocked deterministic reduction driver: computes one partial per fixed
/// [`BLOCK`]-lane range (in parallel when the pool allows), then folds the
/// partials in a fixed pairwise tree. Returns `None` for zero lanes.
pub(crate) fn blocked<P: Send + Default>(
    n: usize,
    per_block: impl Fn(std::ops::Range<usize>) -> P + Sync,
    merge: impl Fn(P, P) -> P,
) -> Option<P> {
    let nb = n.div_ceil(BLOCK);
    if nb == 0 {
        return None;
    }
    let mut parts: Vec<P> = Vec::with_capacity(nb);
    parts.resize_with(nb, P::default);
    if nb > 1 && rayon::current_num_threads() > 1 {
        // Slots are pre-sized and disjoint: threads fill, never accumulate.
        parts
            .par_iter_mut()
            .enumerate()
            .for_each(|(b, slot)| *slot = per_block(block_range(b, n)));
    } else {
        for (b, slot) in parts.iter_mut().enumerate() {
            *slot = per_block(block_range(b, n));
        }
    }
    // Pairwise merge in fixed order: (0,1)(2,3)… then again, until one.
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge(a, b)),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop()
}

/// Global moment sums (n, Σv, Σv²) over valid lanes — one deterministic
/// pass serving mean, variance and standardize.
pub fn moments(arr: &MaskedArray) -> MomentSums {
    let (data, mask) = (arr.data(), arr.mask());
    blocked(
        arr.len(),
        |r| {
            let mut p = MomentSums::default();
            let d = data.get(r.clone()).unwrap_or_default();
            let m = mask.get(r).unwrap_or_default();
            for (&v, &mk) in d.iter().zip(m) {
                if !mk {
                    p.push(v as f64);
                }
            }
            p
        },
        MomentSums::merged,
    )
    .unwrap_or_default()
}

/// Global pair sums over mutually valid lanes of two equal-shape arrays —
/// the shared kernel behind correlation and RMSE.
pub fn pair_sums(a: &MaskedArray, b: &MaskedArray) -> PairSums {
    let n = a.len().min(b.len());
    let (ad, am) = (a.data(), a.mask());
    let (bd, bm) = (b.data(), b.mask());
    blocked(
        n,
        |r| {
            let mut p = PairSums::default();
            let xd = ad.get(r.clone()).unwrap_or_default();
            let xm = am.get(r.clone()).unwrap_or_default();
            let yd = bd.get(r.clone()).unwrap_or_default();
            let ym = bm.get(r).unwrap_or_default();
            for (((&x, &mx), &y), &my) in xd.iter().zip(xm).zip(yd).zip(ym) {
                if !mx && !my {
                    p.push(x as f64, y as f64);
                }
            }
            p
        },
        PairSums::merged,
    )
    .unwrap_or_default()
}

/// Splits `shape` at `axis` into `(outer, k, inner)` and the reduced output
/// shape, validating the axis.
fn axis_split(arr: &MaskedArray, axis: usize) -> Result<(usize, usize, usize, Vec<usize>)> {
    let shape = arr.shape();
    if axis >= shape.len() {
        return Err(CdmsError::AxisOutOfRange { axis, rank: shape.len() });
    }
    let outer: usize = shape.iter().take(axis).product();
    let k = shape.get(axis).copied().unwrap_or(1);
    let inner: usize = shape.iter().skip(axis + 1).product();
    let mut out_shape: Vec<usize> = shape.to_vec();
    out_shape.remove(axis);
    if out_shape.is_empty() {
        out_shape.push(1);
    }
    Ok((outer, k, inner, out_shape))
}

/// Weighted mean along `axis` (one weight per axis index), masked lanes
/// excluded from the normalization — `cdms`'s `weighted_mean_axis`, but
/// parallel over the outer slabs. Each output cell accumulates serially in
/// ascending axis order with plain `f64` sums: the identical order and
/// precision of the eager kernel, so results are bit-identical to it *and*
/// invariant under thread count.
pub fn weighted_mean_axis(arr: &MaskedArray, axis: usize, weights: &[f64]) -> Result<MaskedArray> {
    let (outer, k, inner, out_shape) = axis_split(arr, axis)?;
    if weights.len() != k {
        return Err(CdmsError::ShapeMismatch { expected: vec![k], got: vec![weights.len()] });
    }
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            let mut wsum = vec![0.0f64; dd.len()];
            let mut vsum = vec![0.0f64; dd.len()];
            for (j, &w) in weights.iter().enumerate() {
                let base = (o * k + j) * inner;
                let drow = src_d.get(base..base + inner).unwrap_or_default();
                let mrow = src_m.get(base..base + inner).unwrap_or_default();
                for (((ws, vs), &v), &m) in
                    wsum.iter_mut().zip(vsum.iter_mut()).zip(drow).zip(mrow)
                {
                    if !m {
                        *ws += w;
                        *vs += w * v as f64;
                    }
                }
            }
            for (((d, mk), &ws), &vs) in
                dd.iter_mut().zip(mm.iter_mut()).zip(&wsum).zip(&vsum)
            {
                if ws > 0.0 {
                    *d = (vs / ws) as f32;
                } else {
                    *mk = true;
                }
            }
        });
    MaskedArray::with_mask(data, mask, &out_shape)
}

/// Unweighted mean along `axis` — the `reduce_axis(Mean)` replacement used
/// by `climatology::anomaly`. Same per-cell ascending-order `f64` sums as
/// the eager kernel (bit-identical), outer slabs in parallel.
pub fn mean_axis(arr: &MaskedArray, axis: usize) -> Result<MaskedArray> {
    let (outer, k, inner, out_shape) = axis_split(arr, axis)?;
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            let mut sum = vec![0.0f64; dd.len()];
            let mut cnt = vec![0u32; dd.len()];
            for j in 0..k {
                let base = (o * k + j) * inner;
                let drow = src_d.get(base..base + inner).unwrap_or_default();
                let mrow = src_m.get(base..base + inner).unwrap_or_default();
                for (((s, c), &v), &m) in sum.iter_mut().zip(cnt.iter_mut()).zip(drow).zip(mrow)
                {
                    if !m {
                        *s += v as f64;
                        *c += 1;
                    }
                }
            }
            for (((d, mk), &s), &c) in dd.iter_mut().zip(mm.iter_mut()).zip(&sum).zip(&cnt) {
                if c > 0 {
                    *d = (s / c as f64) as f32;
                } else {
                    *mk = true;
                }
            }
        });
    MaskedArray::with_mask(data, mask, &out_shape)
}

/// Mean over a *subset* of indices along `axis` (e.g. the timesteps of one
/// calendar month), the kernel behind `climatology::mean_over_months`.
///
/// Accumulation is `f32` in the given `selected` order — the exact
/// arithmetic of the pre-fusion eager loop (first contribution assigns,
/// later ones add), so results are bit-identical to it — with output cells
/// distributed over the pool.
pub fn selected_mean_axis(
    arr: &MaskedArray,
    axis: usize,
    selected: &[usize],
) -> Result<MaskedArray> {
    let (outer, k, inner, out_shape) = axis_split(arr, axis)?;
    if selected.is_empty() {
        return Err(CdmsError::EmptySelection("no indices selected".into()));
    }
    if let Some(&bad) = selected.iter().find(|&&j| j >= k) {
        return Err(CdmsError::AxisOutOfRange { axis: bad, rank: k });
    }
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            let mut cnt = vec![0u32; dd.len()];
            for &j in selected {
                let base = (o * k + j) * inner;
                let drow = src_d.get(base..base + inner).unwrap_or_default();
                let mrow = src_m.get(base..base + inner).unwrap_or_default();
                for (((d, c), &v), &m) in dd.iter_mut().zip(cnt.iter_mut()).zip(drow).zip(mrow)
                {
                    if !m {
                        // first valid contribution assigns (not adds):
                        // preserves the eager loop's bit pattern for -0.0
                        if *c == 0 {
                            *d = v;
                        } else {
                            *d += v;
                        }
                        *c += 1;
                    }
                }
            }
            for ((d, mk), &c) in dd.iter_mut().zip(mm.iter_mut()).zip(&cnt) {
                if c > 0 {
                    *d /= c as f32;
                } else {
                    *d = 0.0;
                    *mk = true;
                }
            }
        });
    MaskedArray::with_mask(data, mask, &out_shape)
}

/// Minimum along `axis`, masked lanes skipped, empty cells masked — the
/// min plane of [`order_stats_axis`], whose strict-compare accumulation
/// (from `+∞`, ascending axis order) is the eager `reduce_axis(Min)`'s, so
/// results are bit-identical to it.
pub fn min_axis(arr: &MaskedArray, axis: usize) -> Result<MaskedArray> {
    order_stats_axis(arr, axis, &[])?.take(0, 0)
}

/// Maximum along `axis` — [`min_axis`]'s mirror (from `−∞`).
pub fn max_axis(arr: &MaskedArray, axis: usize) -> Result<MaskedArray> {
    order_stats_axis(arr, axis, &[])?.take(0, 1)
}

/// The `q`-th percentile (0–100) along `axis` — the one percentile plane
/// of [`order_stats_axis`].
pub fn percentile_axis(arr: &MaskedArray, axis: usize, q: f64) -> Result<MaskedArray> {
    order_stats_axis(arr, axis, &[q])?.take(0, 0)
}

/// Output cells per key tile inside a [`BLOCK`]: `TILE` cells × `k` keys
/// stay in L1 for ensembles of a few dozen members.
const TILE: usize = 64;

/// Every requested percentile plus min and max along `axis`, in one pass
/// per output cell:
///
/// 1. the valid values are gathered once, in ascending axis order, taking
///    min and max by strict compare from `±∞` on the way — the eager
///    `reduce_axis(Min/Max)` arithmetic, NaN and signed zeros included;
/// 2. they are sorted once under the `f32::total_cmp` order (as integer
///    keys: the `total_cmp` bit transform is a bijection, so the sorted
///    values are bit-for-bit those of `sort_by(f32::total_cmp)`), and only
///    when `qs` is non-empty;
/// 3. each `q` (0–100) is linearly interpolated at rank `q/100 × (n−1)` in
///    `f64`.
///
/// The result stacks the statistics on a new leading axis: one plane per
/// `q` in order, then min, then max. Masked lanes are skipped; a cell with
/// no valid input is `0.0` and masked in every plane. Output cells are
/// split into fixed [`BLOCK`]-cell ranges filled in parallel, and each
/// cell is computed serially, so no value depends on the thread count.
pub fn order_stats_axis(arr: &MaskedArray, axis: usize, qs: &[f64]) -> Result<MaskedArray> {
    if let Some(q) = qs.iter().find(|q| !(0.0..=100.0).contains(*q)) {
        return Err(CdmsError::Invalid(format!("percentile {q} outside [0, 100]")));
    }
    let (outer, k, inner, out_shape) = axis_split(arr, axis)?;
    let cells = outer * inner;
    let planes = qs.len() + 2;
    let mut data = vec![0.0f32; planes * cells];
    let mut mask = vec![false; cells];
    // block b's range of every plane, so blocks fill disjoint output
    let mut outs: Vec<Vec<&mut [f32]>> =
        (0..cells.div_ceil(BLOCK)).map(|_| Vec::with_capacity(planes)).collect();
    for plane in data.chunks_mut(cells.max(1)) {
        for (slots, part) in outs.iter_mut().zip(plane.chunks_mut(BLOCK)) {
            slots.push(part);
        }
    }
    let src = (arr.data(), arr.mask());
    outs.par_iter_mut()
        .zip(mask.par_chunks_mut(BLOCK))
        .enumerate()
        .for_each(|(b, (outs, mm))| order_block(src, (k, inner), qs, b * BLOCK, outs, mm));
    let mut shape = Vec::with_capacity(out_shape.len() + 1);
    shape.push(planes);
    shape.extend(out_shape);
    MaskedArray::with_mask(data, mask.repeat(planes), &shape)
}

/// Cells `c0 .. c0 + mm.len()` of [`order_stats_axis`]: plane `p` goes to
/// `outs[p]`, the mask to `mm`. Member rows are read one contiguous slice
/// at a time into a cell-major tile of keys, so each cell's valid values
/// end up side by side, in ascending axis order.
fn order_block(
    (src_d, src_m): (&[f32], &[bool]),
    (k, inner): (usize, usize),
    qs: &[f64],
    c0: usize,
    outs: &mut [&mut [f32]],
    mm: &mut [bool],
) {
    let slots = k.max(1);
    let mut keys = vec![0i32; TILE * slots];
    let (mut lens, mut lo, mut hi) = ([0usize; TILE], [0.0f32; TILE], [0.0f32; TILE]);
    let mut c = 0;
    while c < mm.len() {
        // a tile never crosses an outer slab
        let (o, i) = ((c0 + c) / inner, (c0 + c) % inner);
        let w = TILE.min(inner - i).min(mm.len() - c);
        lens.fill(0);
        lo.fill(f32::INFINITY);
        hi.fill(f32::NEG_INFINITY);
        for j in 0..k {
            let base = (o * k + j) * inner + i;
            let drow = src_d.get(base..base + w).unwrap_or_default();
            let mrow = src_m.get(base..base + w).unwrap_or_default();
            let cells = lens.iter_mut().zip(lo.iter_mut().zip(hi.iter_mut()));
            for (((&v, &m), (len, (lo, hi))), cell_keys) in
                drow.iter().zip(mrow).zip(cells).zip(keys.chunks_mut(slots))
            {
                // branch-free: the key is always written and kept only
                // when valid; strict compares, exactly the eager Acc::push
                if let Some(key) = cell_keys.get_mut(*len) {
                    *key = total_key(v.to_bits() as i32);
                }
                *len += usize::from(!m);
                *lo = if !m && v < *lo { v } else { *lo };
                *hi = if !m && v > *hi { v } else { *hi };
            }
        }
        let tile = keys.chunks_mut(slots).zip(lens.iter().zip(lo.iter().zip(&hi)));
        for (x, (cell_keys, (&len, (&lo, &hi)))) in tile.take(w).enumerate() {
            let cell = c + x;
            let valid = cell_keys.get_mut(..len).unwrap_or_default();
            if valid.is_empty() {
                if let Some(mk) = mm.get_mut(cell) {
                    *mk = true;
                }
                continue;
            }
            if !qs.is_empty() {
                valid.sort_unstable();
            }
            let stats = qs.iter().map(|&q| interpolate(valid, q)).chain([lo, hi]);
            for (out, s) in outs.iter_mut().zip(stats) {
                if let Some(d) = out.get_mut(cell) {
                    *d = s;
                }
            }
        }
        c += w;
    }
}

/// The `f32::total_cmp` bit transform on `f32` bits read as `i32`: flips
/// the magnitude bits of negatives, so integer order is `total_cmp` order.
/// Its own inverse.
#[inline]
fn total_key(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The `q`-th percentile of sorted keys: rank `q/100 × (n−1)`, linearly
/// interpolated in `f64`.
fn interpolate(sorted: &[i32], q: f64) -> f32 {
    let at = |r: usize| {
        f64::from(sorted.get(r).map_or(0.0, |&key| f32::from_bits(total_key(key) as u32)))
    };
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let f = rank - lo as f64;
    let (a, b) = (at(lo), at(rank.ceil() as usize));
    (a + (b - a) * f) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_axis_match_eager_bits() {
        let data: Vec<f32> = (0..120).map(|i| (i as f32).sin() * 10.0).collect();
        let mask: Vec<bool> = (0..120).map(|i| i % 7 == 3).collect();
        let a = MaskedArray::with_mask(data, mask, &[5, 4, 6]).unwrap();
        for axis in 0..3 {
            let mins = min_axis(&a, axis).unwrap();
            let maxs = max_axis(&a, axis).unwrap();
            let emin = a.reduce_axis(axis, cdms::array::Reduction::Min).unwrap();
            let emax = a.reduce_axis(axis, cdms::array::Reduction::Max).unwrap();
            assert_eq!(mins.mask(), emin.mask(), "axis {axis}");
            assert_eq!(maxs.mask(), emax.mask(), "axis {axis}");
            let b = |m: &MaskedArray| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(b(&mins), b(&emin), "axis {axis}");
            assert_eq!(b(&maxs), b(&emax), "axis {axis}");
        }
    }

    #[test]
    fn percentile_axis_interpolates_and_masks() {
        // column [1, 2, 3, 100(masked)] → median 2, p0 1, p100 3
        let a = MaskedArray::with_mask(
            vec![1.0, 2.0, 3.0, 100.0],
            vec![false, false, false, true],
            &[4, 1],
        )
        .unwrap();
        assert_eq!(percentile_axis(&a, 0, 50.0).unwrap().data(), &[2.0]);
        assert_eq!(percentile_axis(&a, 0, 0.0).unwrap().data(), &[1.0]);
        assert_eq!(percentile_axis(&a, 0, 100.0).unwrap().data(), &[3.0]);
        // p25 of [1,2,3] = 1.5 (linear interpolation)
        assert_eq!(percentile_axis(&a, 0, 25.0).unwrap().data(), &[1.5]);
        // all-masked column masks the output
        let all = MaskedArray::with_mask(vec![1.0, 2.0], vec![true, true], &[2, 1]).unwrap();
        assert!(percentile_axis(&all, 0, 50.0).unwrap().mask()[0]);
        assert!(percentile_axis(&a, 0, 101.0).is_err());
        assert!(percentile_axis(&a, 2, 50.0).is_err());
    }

    #[test]
    fn neumaier_recovers_lost_low_bits() {
        // 1.0 + 1e16 + (-1e16) == 0 in plain f64 summation order 1e16 first
        let mut acc = Neumaier::default();
        for v in [1.0, 1e16, -1e16] {
            acc.add(v);
        }
        assert_eq!(acc.value(), 1.0);
    }

    #[test]
    fn moments_match_naive_on_small_input() {
        let a = MaskedArray::with_mask(
            vec![1.0, 2.0, 3.0, 100.0],
            vec![false, false, false, true],
            &[4],
        )
        .unwrap();
        let m = moments(&a);
        assert_eq!(m.n, 3);
        assert!((m.mean().unwrap() - 2.0).abs() < 1e-12);
        assert!((m.variance().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pair_sums_correlation_and_rmse() {
        let x = MaskedArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let y = MaskedArray::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[4]).unwrap();
        let p = pair_sums(&x, &y);
        assert_eq!(p.n, 4);
        assert!((p.correlation().unwrap() - 1.0).abs() < 1e-12);
        // rmse of (1,2,3,4) vs itself is 0
        assert!(pair_sums(&x, &x).rmse().unwrap() < 1e-12);
    }

    #[test]
    fn weighted_mean_axis_matches_eager_bits() {
        let n = BLOCK + 77;
        let data: Vec<f32> = (0..n * 3).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let mask: Vec<bool> = (0..n * 3).map(|i| i % 11 == 0).collect();
        let a = MaskedArray::with_mask(data, mask, &[n, 3]).unwrap();
        let w = [0.2f64, 0.5, 0.3];
        let ours = weighted_mean_axis(&a, 1, &w).unwrap();
        let eager = a.weighted_mean_axis(1, &w).unwrap();
        assert_eq!(ours.mask(), eager.mask());
        let ob: Vec<u32> = ours.data().iter().map(|v| v.to_bits()).collect();
        let eb: Vec<u32> = eager.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ob, eb);
    }

    #[test]
    fn mean_axis_matches_eager_bits() {
        let data: Vec<f32> = (0..120).map(|i| (i as f32).sin() * 10.0).collect();
        let mask: Vec<bool> = (0..120).map(|i| i % 7 == 3).collect();
        let a = MaskedArray::with_mask(data, mask, &[5, 4, 6]).unwrap();
        for axis in 0..3 {
            let ours = mean_axis(&a, axis).unwrap();
            let eager = a.reduce_axis(axis, cdms::array::Reduction::Mean).unwrap();
            assert_eq!(ours.shape(), eager.shape());
            assert_eq!(ours.mask(), eager.mask(), "axis {axis}");
            let ob: Vec<u32> = ours.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = eager.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, eb, "axis {axis}");
        }
    }

    #[test]
    fn selected_mean_validates() {
        let a = MaskedArray::zeros(&[4, 2]);
        assert!(selected_mean_axis(&a, 0, &[]).is_err());
        assert!(selected_mean_axis(&a, 0, &[4]).is_err());
        assert!(selected_mean_axis(&a, 5, &[0]).is_err());
        let m = selected_mean_axis(&a, 0, &[1, 3]).unwrap();
        assert_eq!(m.shape(), &[2]);
    }
}
