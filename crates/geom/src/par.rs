//! The thread-count setting of a worker pool that no longer exists.
//!
//! Every geometry call (DRC, flatten, render, grid routing) runs on its
//! caller's thread, so its spans stay in the caller's trace and the
//! caller — a `riot-serve` session worker, a benchmark sampler — owns
//! all concurrency. [`set_threads`] is kept only because the
//! end-to-end benchmark package (`e2ebench`) still calls it; it goes
//! when that package next changes.
//!
//! # Example
//!
//! ```
//! // Accepted and ignored: geometry still runs on this thread.
//! riot_geom::par::set_threads(4);
//! ```

/// Does nothing: geometry calls always run on the caller's thread.
pub fn set_threads(_: usize) {}
