//! Every pair of nearby rectangles, from one plane sweep.
//!
//! [`pairs_within`] answers the question a full design-rule check asks
//! of every shape at once — *which rectangles lie within `dist` of this
//! one?* — without a spatial index. It reports each pair whose axis
//! gaps are both at most `dist` (so `dist = 0` finds the touching
//! pairs), exactly once, lower index first, in O((n + k) log n) time
//! for n rectangles and k reported pairs.
//!
//! # Algorithm
//!
//! A sweep over x (Bentley & Wood, "An optimal worst case algorithm for
//! reporting intersections of rectangles", IEEE TC 1980). A rectangle
//! enters the active set at its `x0` and leaves once the sweep passes
//! `x1 + dist`, so when one enters, the active set holds exactly the
//! earlier entrants whose x gap to it is at most `dist`. Of those it
//! reports the ones whose y gap is at most `dist` too: with the
//! rectangles ranked by `y0`, the candidates with `y0 ≤ y1 + dist` are
//! a prefix of the ranks, and among them the pairs are the active ranks
//! whose `y1` is at least `y0 - dist`. The active set keeps each rank's
//! `y1` in 64-slot blocks under a binary max tree of the block maxima,
//! so a query descends only where a maximum reaches it, and an insert
//! or a removal costs O(log n) (a removal also rescans its block).
//!
//! Every list the sweep walks is a value sort: the ranks by `y0`, the
//! enter events by `x0`, the leave events by `x1 + dist`, and the
//! prefix ends, read off one sort by `y1 + dist` merged against the
//! `y0` order.
//!
//! # Example
//!
//! ```
//! use riot_geom::{sweep, Rect};
//!
//! let rects = [
//!     Rect::new(0, 0, 10, 10),
//!     Rect::new(12, 0, 20, 10), // 2 right of the first
//!     Rect::new(10, 10, 12, 12), // touches both at a corner
//! ];
//! let mut touching = Vec::new();
//! sweep::pairs_within(&rects, 0, |a, b| touching.push((a, b)));
//! touching.sort();
//! assert_eq!(touching, [(0, 2), (1, 2)]);
//! let mut near = Vec::new();
//! sweep::pairs_within(&rects, 2, |a, b| near.push((a, b)));
//! near.sort();
//! assert_eq!(near, [(0, 1), (0, 2), (1, 2)]);
//! ```

use crate::rect::Rect;

/// Ranks per block of the active set: one bit of a `u64` each.
const BLOCK: usize = u64::BITS as usize;

/// Calls `f(a, b)` once for every pair of `rects` whose axis gaps are
/// both at most `dist`, with `a < b` the pair's indices into `rects`.
/// The pairs come in no particular order. The rects must be normalized
/// (`x0 <= x1`, `y0 <= y1`, as [`Rect::new`] makes them); coordinates
/// may span the whole `i64` range.
///
/// Emits one `geom.sweep` span with fields `rects` and `pairs`.
///
/// # Panics
///
/// Panics if `dist` is negative or there are more than `u32::MAX`
/// rects.
pub fn pairs_within(rects: &[Rect], dist: i64, mut f: impl FnMut(u32, u32)) {
    assert!(dist >= 0, "pairs_within needs a non-negative distance");
    let n = u32::try_from(rects.len()).expect("at most u32::MAX rects");
    let mut sp = riot_trace::span!("geom.sweep", rects = n);

    // Rank the rects by `y0`: rank `k` is rect `id[k]`.
    let id: Vec<u32> = sorted_keys(rects, |r| r.y0)
        .into_iter()
        .map(|(_, i)| i)
        .collect();
    let ranked: Vec<Rect> = id.iter().map(|&i| rects[i as usize]).collect();

    // Each rank's prefix end: how many ranks have `y0 <= y1 + dist`.
    let mut end = vec![0u32; ranked.len()];
    let mut below = 0;
    for (top, k) in sorted_keys(&ranked, |r| r.y1.saturating_add(dist)) {
        while ranked.get(below).is_some_and(|r| r.y0 <= top) {
            below += 1;
        }
        end[k as usize] = below as u32;
    }

    let enter = sorted_keys(&ranked, |r| r.x0);
    let leave = sorted_keys(&ranked, |r| r.x1.saturating_add(dist));
    let mut active = Active::new(ranked.len());
    let (mut left, mut pairs) = (0, 0u64);
    for &(x, k) in &enter {
        while let Some(&(_, j)) = leave.get(left).filter(|&&(gone, _)| gone < x) {
            active.remove(j as usize);
            left += 1;
        }
        let (r, a) = (ranked[k as usize], id[k as usize]);
        active.query(
            end[k as usize] as usize,
            r.y0.saturating_sub(dist),
            &mut |j| {
                let b = id[j];
                f(a.min(b), a.max(b));
                pairs += 1;
            },
        );
        active.insert(k as usize, r.y1);
    }
    sp.field("pairs", pairs);
}

/// `(key(r), i)` for every `rects[i]`, sorted.
fn sorted_keys(rects: &[Rect], key: impl Fn(&Rect) -> i64) -> Vec<(i64, u32)> {
    let mut list: Vec<(i64, u32)> = rects.iter().zip(0..).map(|(r, i)| (key(r), i)).collect();
    list.sort_unstable();
    list
}

/// The sweep's active set: the `y1` of each active rank, in blocks of
/// [`BLOCK`] ranks under a binary max tree of the block maxima.
struct Active {
    /// `y1` per rank; `i64::MIN` where the rank is not active.
    top: Vec<i64>,
    /// One bit per active rank, a word per block. The maxima only
    /// prune; a rank is reported only if its bit is set.
    live: Vec<u64>,
    /// Node `v`'s children are `2v` and `2v + 1`; block `b`'s maximum
    /// is node `leaves + b`. Node 0 is unused.
    tree: Vec<i64>,
    leaves: usize,
}

impl Active {
    fn new(n: usize) -> Active {
        let blocks = n.div_ceil(BLOCK);
        let leaves = blocks.next_power_of_two();
        Active {
            top: vec![i64::MIN; blocks * BLOCK],
            live: vec![0; blocks],
            tree: vec![i64::MIN; 2 * leaves],
            leaves,
        }
    }

    fn insert(&mut self, k: usize, y1: i64) {
        self.top[k] = y1;
        self.live[k / BLOCK] |= 1 << (k % BLOCK);
        let mut node = self.leaves + k / BLOCK;
        while node > 0 && self.tree[node] < y1 {
            self.tree[node] = y1;
            node /= 2;
        }
    }

    fn remove(&mut self, k: usize) {
        let (b, y1) = (k / BLOCK, self.top[k]);
        self.top[k] = i64::MIN;
        self.live[b] &= !(1 << (k % BLOCK));
        let mut node = self.leaves + b;
        if self.tree[node] > y1 {
            return;
        }
        let block = &self.top[b * BLOCK..(b + 1) * BLOCK];
        self.tree[node] = block.iter().copied().fold(i64::MIN, i64::max);
        while node > 1 {
            node /= 2;
            let max = self.tree[2 * node].max(self.tree[2 * node + 1]);
            if self.tree[node] == max {
                break;
            }
            self.tree[node] = max;
        }
    }

    /// Calls `hit` for every active rank below `end` whose `y1` is at
    /// least `min_y1`.
    fn query(&self, end: usize, min_y1: i64, hit: &mut impl FnMut(usize)) {
        self.visit(1, 0, self.leaves, end, min_y1, hit);
    }

    /// [`Self::query`] within `node`, which spans the `width` blocks
    /// from `first`.
    fn visit(
        &self,
        node: usize,
        first: usize,
        width: usize,
        end: usize,
        min_y1: i64,
        hit: &mut impl FnMut(usize),
    ) {
        if first * BLOCK >= end || self.tree[node] < min_y1 {
            return;
        }
        if width > 1 {
            let half = width / 2;
            self.visit(2 * node, first, half, end, min_y1, hit);
            self.visit(2 * node + 1, first + half, half, end, min_y1, hit);
            return;
        }
        let base = first * BLOCK;
        let mut mask = 0u64;
        for (i, &y1) in self.top[base..base + BLOCK].iter().enumerate() {
            mask |= u64::from(y1 >= min_y1) << i;
        }
        mask &= self.live[first];
        if end - base < BLOCK {
            mask &= (1 << (end - base)) - 1;
        }
        while mask != 0 {
            hit(base + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair the sweep reports, sorted, checked to be lower index
    /// first.
    fn swept(rects: &[Rect], dist: i64) -> Vec<(u32, u32)> {
        let mut got = Vec::new();
        pairs_within(rects, dist, |a, b| {
            assert!(a < b, "pair ({a}, {b}) is not lower index first");
            got.push((a, b));
        });
        got.sort_unstable();
        got
    }

    /// The all-pairs reference: both axis gaps at most `dist`.
    fn all_pairs(rects: &[Rect], dist: i64) -> Vec<(u32, u32)> {
        let gap = |a0: i64, a1: i64, b0: i64, b1: i64| {
            (i128::from(b0) - i128::from(a1))
                .max(i128::from(a0) - i128::from(b1))
                .max(0)
        };
        let mut want = Vec::new();
        for (i, a) in rects.iter().enumerate() {
            for (j, b) in rects.iter().enumerate().skip(i + 1) {
                let dx = gap(a.x0, a.x1, b.x0, b.x1);
                let dy = gap(a.y0, a.y1, b.y0, b.y1);
                if dx <= i128::from(dist) && dy <= i128::from(dist) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want
    }

    fn agrees(rects: &[Rect], dists: &[i64]) {
        for &dist in dists {
            // Sorted, so a pair reported twice shows as a mismatch.
            assert_eq!(swept(rects, dist), all_pairs(rects, dist), "dist {dist}");
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn no_rects_and_one_rect_have_no_pairs() {
        assert!(swept(&[], 0).is_empty());
        assert!(swept(&[Rect::new(0, 0, 5, 5)], 100).is_empty());
    }

    #[test]
    fn seeded_soup_with_duplicates_and_degenerate_rects() {
        // Coarse coordinates so many rects share an x0 or a y0, with
        // exact duplicates and zero-width, zero-height and point rects.
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let mut rects: Vec<Rect> = (0..600)
            .map(|_| {
                let x = (next() % 40) as i64 * 5;
                let y = (next() % 40) as i64 * 5;
                let w = [0, 0, 3, 5, 10, 40][(next() % 6) as usize];
                let h = [0, 2, 5, 5, 10, 60][(next() % 6) as usize];
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        rects.extend_from_within(..50);
        agrees(&rects, &[0, 1, 4, 9]);
    }

    #[test]
    fn overlapping_collinear_jogs_crossed_by_verticals() {
        // The routed-poly pattern: long horizontal jogs sharing one
        // track, each overlapping the next, crossed by short verticals,
        // beside a parallel track 3 away.
        let mut rects = Vec::new();
        for i in 0..150 {
            rects.push(Rect::new(i * 10, 100, i * 10 + 400, 104));
            rects.push(Rect::new(i * 10 + 2, 107, i * 10 + 200, 111));
            rects.push(Rect::new(i * 10 + 5, 60, i * 10 + 9, 150));
        }
        agrees(&rects, &[0, 2, 3, 7]);
    }

    #[test]
    fn extreme_coordinates() {
        // Anchors at the i32 extremes, like the DRC differential soup,
        // plus rects at the far ends of i64, where `x1 + dist` and
        // `y0 - dist` must not wrap.
        let mut next = xorshift(0xD1CE);
        let mut rects = Vec::new();
        for anchor in [i32::MIN as i64, -1, 0, i32::MAX as i64 - 100] {
            for _ in 0..40 {
                let x = anchor + (next() % 60) as i64;
                let y = anchor + (next() % 60) as i64;
                let (w, h) = ((next() % 8) as i64, (next() % 8) as i64);
                rects.push(Rect::new(x, y, x + w, y + h));
            }
        }
        rects.push(Rect::new(i64::MAX - 5, i64::MAX - 5, i64::MAX, i64::MAX));
        rects.push(Rect::new(
            i64::MAX - 9,
            i64::MAX - 9,
            i64::MAX - 7,
            i64::MAX - 7,
        ));
        rects.push(Rect::new(i64::MIN, i64::MIN, i64::MIN + 3, i64::MIN));
        rects.push(Rect::new(
            i64::MIN,
            i64::MIN + 6,
            i64::MIN + 1,
            i64::MIN + 9,
        ));
        agrees(&rects, &[0, 2, 5, 100]);
    }

    #[test]
    fn span_counts_rects_and_pairs() {
        riot_trace::enable(true);
        let root = riot_trace::span("test.sweep");
        let root_id = root.id();
        let rects = [
            Rect::new(0, 0, 4, 4),
            Rect::new(4, 0, 8, 4),
            Rect::new(20, 0, 24, 4),
        ];
        pairs_within(&rects, 0, |_, _| {});
        drop(root);
        let records = riot_trace::recorder().snapshot();
        let sweep = records
            .iter()
            .find(|r| r.name == "geom.sweep" && r.parent == root_id)
            .expect("a geom.sweep span under the caller's");
        assert!(sweep.fields.contains(&("rects", 3)), "{:?}", sweep.fields);
        assert!(sweep.fields.contains(&("pairs", 1)), "{:?}", sweep.fields);
    }
}
