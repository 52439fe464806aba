//! Parallel stable LSD radix sort specialized for the Morton-code sort
//! that opens every BAT build (paper §III-C1: "particles are sorted by
//! Morton code").
//!
//! A comparison sort pays `O(n log n)` key comparisons; Morton codes are
//! fixed-width `u64`s, so an LSD radix sort gets the permutation in at
//! most 8 linear passes — fewer in practice, because passes over bytes
//! that are constant across the whole input (always the high bytes of a
//! quantized Morton code, and most of them for clustered data) are
//! skipped outright.
//!
//! Each pass is the textbook parallel counting sort: the `(code, index)`
//! pairs are split into chunks, every chunk histograms its digit in
//! parallel, the destination is split (`split_at_mut`, column-major over
//! the per-chunk histograms) into one disjoint cell per (chunk, digit),
//! and the chunks scatter in parallel, each into the cells it owns — in
//! safe code. Chunks scatter their elements in input order into per-digit
//! ranges laid out in chunk order, so every pass is stable; 8 stable
//! passes from the least significant byte up yield exactly the stable
//! sort by full code. The
//! chunk count therefore only affects scheduling, never the result —
//! the output equals `sort_by_key` (std's stable sort) for every thread
//! count, which is the determinism invariant of DESIGN.md §10.

use rayon::prelude::*;

/// Below this size the std stable sort wins; also the floor for parallel
/// chunk sizes so tiny tasks don't thrash the pool.
const SEQ_CUTOFF: usize = 16 << 10;

/// The sorting permutation of `codes` by value: output slot `i` names the
/// input index holding the `i`-th smallest code, ties in input order
/// (stable). `codes.len()` must fit in `u32`, like every particle count
/// in a BAT.
pub fn sorted_perm(codes: &[u64]) -> Vec<u32> {
    let n = codes.len();
    assert!(
        n <= u32::MAX as usize,
        "BAT particle counts are u32-indexed"
    );
    let threads = rayon::current_num_threads();
    if n < SEQ_CUTOFF || threads <= 1 {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| codes[i as usize]);
        return perm;
    }

    // Pair each code with its origin index once, so passes never gather
    // through the permutation (random access); pairs move sequentially.
    let mut pairs: Vec<(u64, u32)> = codes
        .par_iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    // Zero-initialized: every pass fully overwrites its destination, but
    // handing out `&[(u64, u32)]` over uninitialized memory would be UB.
    // One memset is noise next to the passes themselves.
    let mut scratch: Vec<(u64, u32)> = vec![(0, 0); n];

    // Bytes that never vary contribute nothing to the order: one OR and
    // one AND over the codes finds them (paralleling them isn't worth a
    // barrier; this is a single ~n-word scan).
    let (all_or, all_and) = codes
        .iter()
        .fold((0u64, u64::MAX), |(o, a), &c| (o | c, a & c));
    let varying = all_or ^ all_and;

    let chunk = n.div_ceil((4 * threads).max(1)).max(SEQ_CUTOFF / 4);
    let chunks = n.div_ceil(chunk);

    let mut src_is_pairs = true;
    for byte in 0..8 {
        if (varying >> (8 * byte)) & 0xFF == 0 {
            continue;
        }
        {
            let (src, dst) = if src_is_pairs {
                (&pairs[..], &mut scratch[..])
            } else {
                (&scratch[..], &mut pairs[..])
            };
            counting_pass(src, dst, chunk, chunks, 8 * byte);
        }
        src_is_pairs = !src_is_pairs;
    }
    if !src_is_pairs {
        std::mem::swap(&mut pairs, &mut scratch);
    }
    pairs.par_iter().map(|&(_, i)| i).collect()
}

/// One stable counting-sort pass on the byte at `shift`: parallel
/// per-chunk histograms, then a parallel scatter in which every chunk owns
/// its 256 destination cells.
fn counting_pass(
    src: &[(u64, u32)],
    dst: &mut [(u64, u32)],
    chunk: usize,
    chunks: usize,
    shift: u32,
) {
    let digit = |code: u64| ((code >> shift) & 0xFF) as usize;
    let mut hist = vec![0u32; chunks * 256];
    let rows: Vec<&mut [u32]> = hist.chunks_mut(256).collect();
    let _: Vec<()> = rows
        .into_par_iter()
        .enumerate()
        .map(|(c, row)| {
            for &(code, _) in &src[c * chunk..((c + 1) * chunk).min(src.len())] {
                row[digit(code)] += 1;
            }
        })
        .collect();

    // Carve `dst` into (digit-major, chunk-minor) cells: all chunks'
    // digit-0 ranges first (in chunk order), then digit 1, … — the layout
    // that makes the pass stable. Chunk `c` receives its 256 cells.
    let mut cells: Vec<[&mut [(u64, u32)]; 256]> = (0..chunks)
        .map(|_| std::array::from_fn(|_| <&mut [_]>::default()))
        .collect();
    let mut rest = dst;
    for d in 0..256 {
        for (c, row) in cells.iter_mut().enumerate() {
            let (cell, tail) = std::mem::take(&mut rest).split_at_mut(hist[c * 256 + d] as usize);
            row[d] = cell;
            rest = tail;
        }
    }
    let _: Vec<()> = cells
        .into_par_iter()
        .enumerate()
        .map(|(c, row)| {
            let mut filled = [0usize; 256];
            for &pair in &src[c * chunk..((c + 1) * chunk).min(src.len())] {
                let d = digit(pair.0);
                row[d][filled[d]] = pair;
                filled[d] += 1;
            }
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::rng::SplitMix64;

    fn expect_stable(codes: &[u64]) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..codes.len() as u32).collect();
        perm.sort_by_key(|&i| codes[i as usize]);
        perm
    }

    /// Make sure the parallel path runs even on 1-core hosts. Safe to do
    /// from concurrent tests: resizing never changes results (DESIGN.md
    /// §10), it only changes how work is scheduled.
    fn use_parallel_pool() {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build_global()
            .unwrap();
    }

    #[test]
    fn empty_and_single() {
        assert!(sorted_perm(&[]).is_empty());
        assert_eq!(sorted_perm(&[7]), vec![0]);
    }

    #[test]
    fn matches_std_stable_sort_on_random_codes() {
        use_parallel_pool();
        let mut rng = SplitMix64::new(11);
        let codes: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        assert_eq!(sorted_perm(&codes), expect_stable(&codes));
    }

    #[test]
    fn duplicate_codes_keep_input_order() {
        use_parallel_pool();
        // Few distinct values → heavy ties; stability is observable.
        let mut rng = SplitMix64::new(12);
        let codes: Vec<u64> = (0..80_000).map(|_| rng.next_u64() % 16).collect();
        assert_eq!(sorted_perm(&codes), expect_stable(&codes));
    }

    #[test]
    fn clustered_codes_skip_constant_bytes() {
        use_parallel_pool();
        // High bytes constant (tight spatial cluster): the skip path.
        let mut rng = SplitMix64::new(13);
        let codes: Vec<u64> = (0..50_000)
            .map(|_| 0xABCD_EF00_0000_0000 | (rng.next_u64() & 0xFFFF))
            .collect();
        assert_eq!(sorted_perm(&codes), expect_stable(&codes));
    }

    #[test]
    fn all_codes_equal() {
        use_parallel_pool();
        let codes = vec![42u64; 30_000];
        let perm = sorted_perm(&codes);
        assert_eq!(perm, (0..30_000u32).collect::<Vec<u32>>());
    }
}
