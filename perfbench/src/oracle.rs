//! The correctness oracle. Every element's value is a function of its
//! index and of the version of the write that stored it:
//! `value = version << bits | linear index`, exact in an f64 because
//! `bits + 30 <= 53`. Version 0 means "never written" and reads as 0.0.
//!
//! Each element has exactly one writer. A write stores the new version in
//! `started` before the call and in `committed` after it returns, so a
//! concurrent reader accepts any version between the committed one it saw
//! before its call and the started one it sees after it.

use drx_core::{Layout, Region};
use std::sync::atomic::{AtomicU32, Ordering};

/// Highest version a writer may use.
pub const MAX_VERSION: u32 = (1 << 30) - 1;

/// The encoded value of linear index `code` at version `v`.
pub fn encode(v: u32, code: u64, bits: u32) -> f64 {
    if v == 0 {
        0.0
    } else {
        ((v as u64) << bits | code) as f64
    }
}

/// Whether `x` is a valid value of element `code` at some version in
/// `[lo, hi]`.
pub fn valid(x: f64, code: u64, bits: u32, lo: u32, hi: u32) -> bool {
    if x.to_bits() == 0 {
        return lo == 0;
    }
    if !(1.0..9.007_199_254_740_992e15).contains(&x) || x.fract() != 0.0 {
        return false;
    }
    let u = x as u64;
    let v = (u >> bits) as u32;
    u & ((1u64 << bits) - 1) == code && v >= lo.max(1) && v <= hi
}

/// Visit the start of every row (all dimensions but the last) of a
/// non-empty region, in row-major order.
pub fn for_rows(region: &Region, mut f: impl FnMut(&[usize])) {
    if region.is_empty() {
        return;
    }
    let (lo, hi) = (region.lo(), region.hi());
    let mut idx = lo.to_vec();
    loop {
        f(&idx);
        let mut d = idx.len() - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < hi[d] {
                break;
            }
            idx[d] = lo[d];
        }
    }
}

pub struct Oracle {
    strides: Vec<usize>,
    bits: u32,
    started: Vec<AtomicU32>,
    committed: Vec<AtomicU32>,
}

impl Oracle {
    /// An oracle over element indices inside `dims` (the largest shape the
    /// array reaches).
    pub fn new(dims: &[usize]) -> Oracle {
        let vol: usize = dims.iter().product();
        let bits = 64 - (vol as u64 - 1).leading_zeros();
        assert!(bits + 30 <= 53, "array too large for exact f64 version encoding");
        let mut strides = vec![1usize; dims.len()];
        for d in (0..dims.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * dims[d + 1];
        }
        let zeros = || (0..vol).map(|_| AtomicU32::new(0)).collect();
        Oracle { strides, bits, started: zeros(), committed: zeros() }
    }

    fn lin(&self, idx: &[usize]) -> usize {
        idx.iter().zip(&self.strides).map(|(i, s)| i * s).sum()
    }

    /// Visit `(linear index, buffer position)` of every element of the
    /// region, with the buffer in `layout` order.
    fn each(&self, region: &Region, layout: Layout, mut f: impl FnMut(usize, usize)) {
        let ls = layout.strides(&region.extents());
        let k = region.rank();
        let n = region.extents()[k - 1];
        let step = ls[k - 1] as usize;
        for_rows(region, |row| {
            let lin = self.lin(row);
            let pos: usize = row
                .iter()
                .zip(region.lo())
                .zip(&ls)
                .map(|((&i, &l), &s)| (i - l) * s as usize)
                .sum();
            for j in 0..n {
                f(lin + j, pos + j * step);
            }
        });
    }

    /// The data a write of version `v` stores into `region`.
    pub fn fill(&self, region: &Region, layout: Layout, v: u32) -> Vec<f64> {
        let mut out = vec![0.0f64; region.volume() as usize];
        self.each(region, layout, |lin, pos| out[pos] = encode(v, lin as u64, self.bits));
        out
    }

    /// Mark a write of version `v` as started (before the call).
    pub fn begin(&self, region: &Region, v: u32) {
        self.each(region, Layout::C, |lin, _| self.started[lin].store(v, Ordering::SeqCst));
    }

    /// Mark a write of version `v` as committed (after the call returned).
    pub fn commit(&self, region: &Region, v: u32) {
        self.each(region, Layout::C, |lin, _| self.committed[lin].store(v, Ordering::SeqCst));
    }

    /// Committed versions of the region in row-major order, taken before a
    /// read that may overlap another thread's writes.
    pub fn snapshot(&self, region: &Region) -> Vec<u32> {
        let mut out = Vec::with_capacity(region.volume() as usize);
        self.each(region, Layout::C, |lin, _| out.push(self.committed[lin].load(Ordering::SeqCst)));
        out
    }

    /// Count the elements of a read that no write could have produced.
    /// Without a snapshot the reader is the only writer, so the committed
    /// version is the lower bound.
    pub fn check(
        &self,
        region: &Region,
        layout: Layout,
        data: &[f64],
        snap: Option<&[u32]>,
    ) -> usize {
        if data.len() as u64 != region.volume() {
            return data.len().max(1);
        }
        let mut bad = 0;
        let mut i = 0;
        self.each(region, layout, |lin, pos| {
            let lo = match snap {
                Some(s) => s[i],
                None => self.committed[lin].load(Ordering::SeqCst),
            };
            let hi = self.started[lin].load(Ordering::SeqCst);
            if !valid(data[pos], lin as u64, self.bits, lo, hi) {
                bad += 1;
            }
            i += 1;
        });
        bad
    }
}

/// A time-series log `(t, side, side)` in `(4, side, side)` chunks, the
/// append target of every workload but `grow`. It starts with
/// [`LOG_SEED`] steps and is restarted after [`LOG_STEPS`] appends; every
/// element is written once, at version 1, so a retired log is verified in
/// full.
#[derive(Clone, Copy)]
pub struct Log {
    pub side: usize,
}

pub const LOG_SEED: usize = 4;
pub const LOG_STEPS: usize = 64;

impl Log {
    pub fn chunk(self) -> [usize; 3] {
        [4, self.side, self.side]
    }

    pub fn region(self, t0: usize, t1: usize) -> Region {
        Region::new(vec![t0, 0, 0], vec![t1, self.side, self.side]).expect("log region")
    }

    /// The values of time steps `[t0, t1)`, row-major.
    pub fn values(self, t0: usize, t1: usize) -> Vec<f64> {
        let per = self.side * self.side;
        let vol = ((LOG_SEED + LOG_STEPS) * per) as u64;
        let bits = 64 - (vol - 1).leading_zeros();
        (t0 * per..t1 * per).map(|lin| encode(1, lin as u64, bits)).collect()
    }

    /// Mismatching elements of a full read of a log with `t` steps.
    pub fn check(self, data: &[f64], t: usize) -> usize {
        let want = self.values(0, t);
        if want.len() != data.len() {
            return want.len().max(1);
        }
        want.iter().zip(data).filter(|(a, b)| a.to_bits() != b.to_bits()).count()
    }
}
