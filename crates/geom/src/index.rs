//! An immutable spatial index over rectangles: a bucketed uniform grid.
//!
//! Window queries — *which rectangles touch this window?* — come from
//! the DRC patch, the render cache's damage repaint and the grid
//! router's obstacles. [`SpatialIndex`] answers one in roughly O(k)
//! after an O(n log n) build: rectangles are binned into a √n × √n grid
//! of buckets (CSR layout, two-pass build, no per-bucket allocation),
//! and a query gathers the buckets its window overlaps, deduplicates,
//! and filters exactly. A full check, which wants every nearby pair at
//! once, uses one plane sweep ([`crate::sweep`]) instead: a long
//! rectangle fills many buckets, and every query along it pays for
//! them.
//!
//! The index is **immutable** once built and contains only plain data
//! plus atomic counters, so shared references can be queried freely
//! from any thread.
//!
//! # Example
//!
//! ```
//! use riot_geom::{index::SpatialIndex, Rect};
//!
//! let rects = vec![
//!     Rect::new(0, 0, 10, 10),
//!     Rect::new(100, 100, 110, 110),
//!     Rect::new(12, 0, 20, 10),
//! ];
//! let idx = SpatialIndex::build(&rects);
//! // Touching the first rectangle only:
//! let hits: Vec<usize> = idx.query(Rect::new(5, 5, 9, 9)).collect();
//! assert_eq!(hits, vec![0]);
//! // Within 2 centimicrons of it: the gap-2 neighbor appears too.
//! let near: Vec<usize> = idx.within(Rect::new(0, 0, 10, 10), 2).collect();
//! assert_eq!(near, vec![0, 2]);
//! ```

use crate::rect::Rect;
use std::sync::Arc;

/// An immutable bucketed-grid index over a fixed set of [`Rect`]s.
///
/// Built once with [`SpatialIndex::build`]; queries never mutate the
/// structure (the only interior mutability is a metrics counter), so a
/// `&SpatialIndex` is freely shareable across threads.
#[derive(Debug)]
pub struct SpatialIndex {
    rects: Vec<Rect>,
    bounds: Rect,
    cols: usize,
    rows: usize,
    cell_w: i64,
    cell_h: i64,
    /// CSR bucket layout: ids of rects overlapping bucket `b` live in
    /// `entries[bucket_start[b]..bucket_start[b + 1]]`.
    bucket_start: Vec<u32>,
    entries: Vec<u32>,
    queries: Arc<riot_trace::Counter>,
}

impl SpatialIndex {
    /// Builds an index over `rects`. Ids handed back by queries are
    /// indices into this slice (also retrievable via [`Self::rect`]).
    ///
    /// Cost is O(n log n)-ish: one pass to bound, two passes to fill
    /// the CSR buckets (a rect spanning many buckets is inserted into
    /// each, so extremely elongated rects cost proportionally more).
    pub fn build(rects: &[Rect]) -> SpatialIndex {
        let _sp = riot_trace::span!("geom.index.build", rects = rects.len() as u64);
        let registry = riot_trace::registry();
        registry.counter("geom.index.builds").inc();
        registry.counter("geom.index.rects").add(rects.len() as u64);
        let queries = registry.counter("geom.index.queries");

        let n = rects.len();
        let bounds = rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(b))
            .unwrap_or_default();
        // Target roughly one rect per bucket: a side of ceil(sqrt(n)).
        let side = (n as f64).sqrt().ceil().max(1.0) as usize;
        let cols = side;
        let rows = side;
        let cell_w = div_ceil_i64(bounds.width().max(1), cols as i64).max(1);
        let cell_h = div_ceil_i64(bounds.height().max(1), rows as i64).max(1);

        // Two-pass CSR fill: count, prefix-sum, then place.
        let mut bucket_start = vec![0u32; cols * rows + 1];
        let mut spans = Vec::with_capacity(n);
        for r in rects {
            let s = bucket_span(bounds, cell_w, cell_h, cols, rows, *r);
            for row in s.1 .0..=s.1 .1 {
                for col in s.0 .0..=s.0 .1 {
                    bucket_start[row * cols + col + 1] += 1;
                }
            }
            spans.push(s);
        }
        for b in 1..bucket_start.len() {
            bucket_start[b] += bucket_start[b - 1];
        }
        let mut cursor = bucket_start.clone();
        let mut entries = vec![0u32; bucket_start[cols * rows] as usize];
        for (id, s) in spans.iter().enumerate() {
            for row in s.1 .0..=s.1 .1 {
                for col in s.0 .0..=s.0 .1 {
                    let b = row * cols + col;
                    entries[cursor[b] as usize] = id as u32;
                    cursor[b] += 1;
                }
            }
        }

        SpatialIndex {
            rects: rects.to_vec(),
            bounds,
            cols,
            rows,
            cell_w,
            cell_h,
            bucket_start,
            entries,
            queries,
        }
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the index holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The rectangle behind an id returned by a query.
    pub fn rect(&self, id: usize) -> Rect {
        self.rects[id]
    }

    /// Ids of all rectangles that touch `window` (boundary contact
    /// counts, matching [`Rect::touches`]), in ascending id order.
    pub fn query(&self, window: Rect) -> impl Iterator<Item = usize> + '_ {
        let ids = self.candidates(window);
        ids.into_iter()
            .filter(move |&id| self.rects[id].touches(window))
    }

    /// Ids of all rectangles whose axis gap to `window` is at most
    /// `dist` on **both** axes — the neighborhood a spacing rule of
    /// `dist + 1` must inspect. `within(r, 0)` equals `query(r)`.
    ///
    /// # Panics
    ///
    /// Panics if `dist` is negative.
    pub fn within(&self, window: Rect, dist: i64) -> impl Iterator<Item = usize> + '_ {
        assert!(dist >= 0, "within() needs a non-negative distance");
        let grown = window.inflated(dist);
        self.query(grown)
    }

    /// Candidate ids from every bucket overlapping `window`, sorted
    /// ascending and deduplicated (a rect spanning several buckets
    /// appears once).
    fn candidates(&self, window: Rect) -> Vec<usize> {
        self.queries.inc();
        if self.rects.is_empty() || !self.bounds.touches(window) {
            return Vec::new();
        }
        let ((c0, c1), (r0, r1)) = bucket_span(
            self.bounds,
            self.cell_w,
            self.cell_h,
            self.cols,
            self.rows,
            window,
        );
        let mut ids = Vec::new();
        for row in r0..=r1 {
            for col in c0..=c1 {
                let b = row * self.cols + col;
                let lo = self.bucket_start[b] as usize;
                let hi = self.bucket_start[b + 1] as usize;
                ids.extend(self.entries[lo..hi].iter().map(|&id| id as usize));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The inclusive `(col, row)` bucket ranges a rectangle overlaps.
#[allow(clippy::type_complexity)]
fn bucket_span(
    bounds: Rect,
    cell_w: i64,
    cell_h: i64,
    cols: usize,
    rows: usize,
    r: Rect,
) -> ((usize, usize), (usize, usize)) {
    let c0 = ((r.x0 - bounds.x0) / cell_w).clamp(0, cols as i64 - 1) as usize;
    let c1 = ((r.x1 - bounds.x0) / cell_w).clamp(0, cols as i64 - 1) as usize;
    let r0 = ((r.y0 - bounds.y0) / cell_h).clamp(0, rows as i64 - 1) as usize;
    let r1 = ((r.y1 - bounds.y0) / cell_h).clamp(0, rows as i64 - 1) as usize;
    ((c0, c1), (r0, r1))
}

fn div_ceil_i64(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_rects(cols: i64, rows: i64, size: i64, pitch: i64) -> Vec<Rect> {
        let mut v = Vec::new();
        for c in 0..cols {
            for r in 0..rows {
                v.push(Rect::new(
                    c * pitch,
                    r * pitch,
                    c * pitch + size,
                    r * pitch + size,
                ));
            }
        }
        v
    }

    /// Reference all-pairs query the index must agree with.
    fn naive_touching(rects: &[Rect], window: Rect) -> Vec<usize> {
        rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.touches(window))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index() {
        let idx = SpatialIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.query(Rect::new(0, 0, 10, 10)).count(), 0);
    }

    #[test]
    fn query_matches_naive_on_grid() {
        let rects = grid_rects(13, 9, 8, 20);
        let idx = SpatialIndex::build(&rects);
        for window in [
            Rect::new(0, 0, 5, 5),
            Rect::new(-100, -100, -50, -50),
            Rect::new(0, 0, 260, 180),
            Rect::new(35, 35, 37, 37),
            Rect::new(19, 19, 21, 21), // straddles pitch boundaries
        ] {
            let got: Vec<usize> = idx.query(window).collect();
            assert_eq!(got, naive_touching(&rects, window), "window {window}");
        }
    }

    #[test]
    fn query_matches_naive_on_soup() {
        // Deterministic pseudo-random soup without external crates.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rects: Vec<Rect> = (0..500)
            .map(|_| {
                let x = (next() % 10_000) as i64;
                let y = (next() % 10_000) as i64;
                let w = (next() % 400) as i64 + 1;
                let h = (next() % 400) as i64 + 1;
                Rect::new(x, y, x + w, y + h)
            })
            .collect();
        let idx = SpatialIndex::build(&rects);
        for i in (0..rects.len()).step_by(17) {
            let got: Vec<usize> = idx.query(rects[i]).collect();
            assert_eq!(got, naive_touching(&rects, rects[i]), "rect {i}");
        }
    }

    #[test]
    fn within_expands_the_neighborhood() {
        let rects = vec![Rect::new(0, 0, 10, 10), Rect::new(15, 0, 25, 10)];
        let idx = SpatialIndex::build(&rects);
        let near0: Vec<usize> = idx.within(rects[0], 4).collect();
        assert_eq!(near0, vec![0]); // gap is 5 > 4
        let near1: Vec<usize> = idx.within(rects[0], 5).collect();
        assert_eq!(near1, vec![0, 1]);
    }

    #[test]
    fn within_is_query_at_zero() {
        let rects = grid_rects(5, 5, 8, 20);
        let idx = SpatialIndex::build(&rects);
        for &r in &rects {
            let a: Vec<usize> = idx.query(r).collect();
            let b: Vec<usize> = idx.within(r, 0).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn degenerate_rects_are_indexed() {
        let rects = vec![Rect::new(5, 5, 5, 5), Rect::new(5, 0, 5, 10)];
        let idx = SpatialIndex::build(&rects);
        let got: Vec<usize> = idx.query(Rect::new(5, 5, 5, 5)).collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn query_counter_ticks() {
        let before = riot_trace::registry().counter("geom.index.queries").get();
        let idx = SpatialIndex::build(&[Rect::new(0, 0, 1, 1)]);
        let _ = idx.query(Rect::new(0, 0, 2, 2)).count();
        let after = riot_trace::registry().counter("geom.index.queries").get();
        assert!(after > before);
    }
}
