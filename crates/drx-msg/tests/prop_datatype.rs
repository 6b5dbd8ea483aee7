//! Property tests for derived datatypes and the view translation they feed.

use drx_msg::Datatype;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The extents of an indexed type cover exactly blocklens·base bytes, in
    /// increasing non-overlapping order, and equal the item-by-item
    /// expansion of the blocks. A zero pad makes the base dense (the
    /// one-run-per-block path); a positive pad leaves a gap after each item.
    /// Zero gaps make neighbouring blocks touch.
    #[test]
    fn indexed_extents_are_sorted_disjoint_and_complete(
        base_len in 1u64..64,
        pad in 0u64..3,
        blocks in prop::collection::vec((0usize..4, 1usize..5), 1..8),
    ) {
        // Build monotonically increasing displacements with gaps.
        let mut displs = Vec::new();
        let mut lens = Vec::new();
        let mut cursor = 0usize;
        for (gap, len) in blocks {
            cursor += gap;
            displs.push(cursor);
            lens.push(len);
            cursor += len;
        }
        let base = Datatype::contiguous(base_len).resized(base_len + pad).unwrap();
        let t = Datatype::indexed(&lens, &displs, &base).unwrap();
        let total: u64 = lens.iter().map(|&l| l as u64 * base_len).sum();
        prop_assert_eq!(t.size(), total);
        let extents = t.extents();
        for w in extents.windows(2) {
            prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overlap or disorder: {:?}", extents);
        }
        // Reference: one `base_len` run per item, adjacent runs merged.
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for (&d, &l) in displs.iter().zip(&lens) {
            for i in 0..l as u64 {
                let off = (d as u64 + i) * (base_len + pad);
                match expect.last_mut() {
                    Some(last) if last.0 + last.1 == off => last.1 += base_len,
                    _ => expect.push((off, base_len)),
                }
            }
        }
        prop_assert_eq!(extents, expect.as_slice());
    }

    /// absolute_ranges is consistent: mapping the whole selected size
    /// reproduces the extents; mapping in two halves concatenates to the
    /// same ranges.
    #[test]
    fn absolute_ranges_compose(
        base_len in 1u64..16,
        displs_raw in prop::collection::vec(1usize..4, 1..6),
        split_frac in 0.0f64..1.0,
    ) {
        let mut displs = Vec::new();
        let mut cursor = 0usize;
        for gap in displs_raw {
            cursor += gap;
            displs.push(cursor);
            cursor += 1;
        }
        let lens = vec![1usize; displs.len()];
        let base = Datatype::contiguous(base_len);
        let t = Datatype::indexed(&lens, &displs, &base).unwrap();
        let size = t.size();
        let whole = t.absolute_ranges(0, size);
        let covered: u64 = whole.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(covered, size);
        // Split into two, re-concatenate, coalesce, compare.
        let cut = ((size as f64) * split_frac) as u64;
        let mut parts = t.absolute_ranges(0, cut);
        for (o, l) in t.absolute_ranges(cut, size - cut) {
            match parts.last_mut() {
                Some(last) if last.0 + last.1 == o => last.1 += l,
                _ => parts.push((o, l)),
            }
        }
        prop_assert_eq!(parts, whole);
    }

    /// A subarray type selects exactly the bytes of its cells, and tiling
    /// ranges stay within one tile for offsets < size.
    #[test]
    fn subarray_size_matches_volume(
        shape in prop::collection::vec(1usize..6, 1..4),
        frac in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4),
        elem in 1usize..9,
    ) {
        let k = shape.len();
        let mut lo = vec![0usize; k];
        let mut hi = vec![0usize; k];
        for j in 0..k {
            let (a, b) = frac[j.min(3)];
            let x = (a * shape[j] as f64) as usize;
            let y = (b * shape[j] as f64) as usize;
            lo[j] = x.min(y);
            hi[j] = x.max(y);
        }
        let t = Datatype::subarray(&shape, &lo, &hi, elem).unwrap();
        let vol: u64 = lo.iter().zip(&hi).map(|(&l, &h)| (h - l) as u64).product();
        prop_assert_eq!(t.size(), vol * elem as u64);
        let full: u64 = shape.iter().map(|&n| n as u64).product();
        prop_assert_eq!(t.extent(), full * elem as u64);
        // Every selected byte lies inside the full array span.
        for &(o, l) in t.extents() {
            prop_assert!(o + l <= t.extent());
        }
    }

    /// vector == indexed with equally spaced displacements.
    #[test]
    fn vector_equals_equivalent_indexed(
        count in 1usize..6,
        blocklen in 1usize..4,
        extra in 0usize..4,
        base_len in 1u64..16,
    ) {
        let stride = blocklen + extra;
        let base = Datatype::contiguous(base_len);
        let v = Datatype::vector(count, blocklen, stride, &base).unwrap();
        let displs: Vec<usize> = (0..count).map(|i| i * stride).collect();
        let lens = vec![blocklen; count];
        let ix = Datatype::indexed(&lens, &displs, &base).unwrap();
        prop_assert_eq!(v.extents(), ix.extents());
        prop_assert_eq!(v.size(), ix.size());
    }
}
