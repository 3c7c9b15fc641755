//! The grid workloads: one fixed set of channels, routed in-process
//! with `grid_route`, pass after pass, each route verified as soon as it
//! is made.
//!
//! Like the Fig 9 journal, a channel set is fixed by its spec; the seed
//! orders it. The grid engine's cost on one channel swings several-fold
//! with the terminal jitter, so a seed-drawn set would make every
//! metric depend on which channels a run happened to draw.

use crate::report::Values;
use crate::stats::percentile;
use crate::verify::timed;
use crate::workload::{GridSpec, SAMPLERS};
use crate::{spans, Phase, Tally};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riot::cif::FlatShape;
use riot::drc::RuleSet;
use riot::geom::{Layer, Rect};
use riot::route::{grid, grid_route, river_route, GridStats, RouteProblem};
use std::time::{Duration, Instant};

/// One channel of the set.
struct Channel {
    problem: RouteProblem,
    obstacles: Vec<(Layer, Rect)>,
}

impl Channel {
    fn nets(&self) -> usize {
        self.problem.net_count()
    }
}

/// Channel `i` of the set: net counts step evenly across `spec.nets`;
/// riverable channels also step the top-edge shift through 0..=20.
fn channel(spec: &GridSpec, i: usize) -> Channel {
    let (lo, hi) = spec.nets;
    let n = lo + i * (hi - lo) / (spec.channels - 1).max(1);
    let seed = spec.pool_seed + i as u64;
    if spec.obstacles {
        Channel {
            problem: riot_bench::grid_route_workload(n, seed),
            obstacles: riot_bench::grid_route_obstacles(n, n, seed),
        }
    } else {
        let shift = (i * 13 % 21) as i64;
        Channel {
            problem: riot_bench::route_problem(n, shift, seed),
            obstacles: Vec::new(),
        }
    }
}

/// A set-up grid workload: the channel set in seeded order.
pub struct GridBench {
    spec: GridSpec,
    channels: Vec<Channel>,
    order: Vec<usize>,
}

/// What routing and verifying the set, pass after pass, measured. Every
/// per-channel list is indexed by the channel's place in the set.
#[derive(Default)]
struct Passes {
    /// Route time of each channel, one per pass.
    route_ns: Vec<Vec<f64>>,
    /// Verify time of each channel's route, one per pass:
    /// `[total, clearance, mask, DRC]` in ns.
    verify_ns: Vec<Vec<[u64; 4]>>,
    /// Mask shapes of each channel's route.
    mask_shapes: Vec<usize>,
    river_ns: Vec<f64>,
    nets: usize,
    stats: GridStats,
}

impl Passes {
    fn add_stats(&mut self, s: GridStats) {
        self.stats.expansions += s.expansions;
        self.stats.vias += s.vias;
        self.stats.conflicts += s.conflicts;
        self.stats.retries += s.retries;
        self.stats.restarts += s.restarts;
    }

    /// Adds another thread's passes over the same set.
    fn absorb(&mut self, other: Passes) {
        self.route_ns.resize(other.route_ns.len(), Vec::new());
        self.verify_ns.resize(other.verify_ns.len(), Vec::new());
        self.mask_shapes.resize(other.mask_shapes.len(), 0);
        for (mine, theirs) in self.route_ns.iter_mut().zip(other.route_ns) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.verify_ns.iter_mut().zip(other.verify_ns) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.mask_shapes.iter_mut().zip(other.mask_shapes) {
            *mine = (*mine).max(theirs);
        }
        self.river_ns.extend(other.river_ns);
        self.nets += other.nets;
        self.add_stats(other.stats);
    }
}

/// The fastest of `samples`: the work is identical each time, and the
/// host's slow spells, which come and go within seconds, only ever add
/// time.
fn fastest<T: Copy>(samples: &[T], key: impl Fn(&T) -> f64) -> Option<T> {
    samples
        .iter()
        .copied()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
}

impl GridBench {
    /// One set-up: generate the channel set, check each against the
    /// river router (obstacle channels must defeat it, riverable ones
    /// must route), and order it by `seed`.
    ///
    /// # Errors
    ///
    /// A channel on the wrong side of the river router.
    pub fn set_up(spec: GridSpec, seed: u64) -> Result<GridBench, String> {
        let channels: Vec<Channel> = (0..spec.channels).map(|i| channel(&spec, i)).collect();
        for (i, c) in channels.iter().enumerate() {
            match (spec.obstacles, river_route(&c.problem)) {
                (true, Ok(_)) => return Err(format!("obstacle channel {i} is river-routable")),
                (false, Err(e)) => return Err(format!("riverable channel {i}: river router: {e}")),
                _ => {}
            }
        }
        let mut order: Vec<usize> = (0..channels.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Ok(GridBench {
            spec,
            channels,
            order,
        })
    }

    /// Routes channel `i` and verifies the route at once: it lands every
    /// net, passes `grid::verify_clearance` against the channel's
    /// obstacles, and its mask is DRC-clean. A riverable channel also
    /// goes through the river router, the bypass reference.
    fn channel_pass(&self, i: usize, p: &mut Passes, rules: &RuleSet) -> Result<(), String> {
        let c = &self.channels[i];
        if !self.spec.obstacles {
            let _root = spans::root("bench.route.river");
            let t = Instant::now();
            let res = river_route(&c.problem);
            p.river_ns.push(t.elapsed().as_nanos() as f64);
            res.map_err(|e| format!("channel {i}: river router: {e}"))?;
        }
        let root = spans::root("bench.route.grid");
        let t = Instant::now();
        let res = grid_route(&c.problem, &c.obstacles);
        let route_ns = t.elapsed().as_nanos() as f64;
        drop(root);
        let r = res.map_err(|e| format!("channel {i}: grid router: {e}"))?;
        if r.wires().len() != c.nets() {
            return Err(format!(
                "channel {i}: grid routed {} of {} nets",
                r.wires().len(),
                c.nets()
            ));
        }

        let _root = spans::root("bench.verify");
        let t = Instant::now();
        let (res, clearance) = timed("bench.route.clearance", || {
            grid::verify_clearance(&r, &c.obstacles)
        });
        res.map_err(|e| format!("channel {i}: clearance: {e}"))?;
        let (flat, mask) = timed("bench.sticks.mask", || {
            riot::sticks::mask::to_cif_cell(&r.to_sticks_cell("bench_route"), 1)
                .shapes
                .into_iter()
                .map(|s| FlatShape {
                    layer: s.layer,
                    geometry: s.geometry,
                    depth: 0,
                })
                .collect::<Vec<_>>()
        });
        let (violations, drc) = timed("bench.drc.check", || riot::drc::check(&flat, rules));
        let verify_ns = t.elapsed().as_nanos() as u64;
        if !violations.is_empty() {
            return Err(format!("channel {i}: {} DRC violations", violations.len()));
        }

        p.route_ns[i].push(route_ns);
        p.verify_ns[i].push([verify_ns, clearance, mask, drc]);
        p.mask_shapes[i] = flat.len();
        p.nets += c.nets();
        p.add_stats(r.stats());
        Ok(())
    }

    /// One pass over the set in the seeded order, starting `lane` /
    /// [`SAMPLERS`] of the way in, so that threads passing at once route
    /// different channels; each channel counts as one operation.
    fn pass(&self, lane: usize, p: &mut Passes, tally: &mut Tally) {
        let n = self.channels.len();
        p.route_ns.resize(n, Vec::new());
        p.verify_ns.resize(n, Vec::new());
        p.mask_shapes.resize(n, 0);
        let rules = RuleSet::nmos();
        for k in 0..n {
            let i = self.order[(k + lane * n / SAMPLERS) % n];
            tally.attempted += 1;
            if let Err(e) = self.channel_pass(i, p, &rules) {
                tally.fail(e);
            }
            spans::drain();
        }
    }

    /// One pass on each of [`SAMPLERS`] threads at once.
    fn passes(&self, lanes: &mut [(Passes, Tally)]) {
        std::thread::scope(|s| {
            for (lane, (p, tally)) in lanes.iter_mut().enumerate() {
                s.spawn(move || self.pass(lane, p, tally));
            }
        });
    }

    /// The untimed warm-up unit: one pass on each thread.
    pub fn warm_up(&self, tally: &mut Tally) {
        let mut lanes: Vec<(Passes, Tally)> = (0..SAMPLERS).map(|_| Default::default()).collect();
        self.passes(&mut lanes);
        for (_, t) in lanes {
            tally.merge(t);
        }
    }

    /// Passes on every thread until `budget` is spent (at least one
    /// each), calling `between` after each round of them.
    pub fn measure(&self, budget: Duration, traced: bool, between: &mut dyn FnMut()) -> Phase {
        let deadline = Instant::now() + budget;
        let mut lanes: Vec<(Passes, Tally)> = (0..SAMPLERS).map(|_| Default::default()).collect();
        loop {
            self.passes(&mut lanes);
            between();
            if Instant::now() >= deadline {
                break;
            }
        }
        let mut p = Passes::default();
        let mut tally = Tally::default();
        for (lp, lt) in lanes {
            p.absorb(lp);
            tally.merge(lt);
        }
        let mut values = Values::new();
        // A channel's route and verify costs are each the fastest of its
        // passes.
        let cost_ns: Vec<f64> = p
            .route_ns
            .iter()
            .filter_map(|t| fastest(t, |&x| x))
            .collect();
        let routed_nets: usize = p
            .route_ns
            .iter()
            .zip(&self.channels)
            .filter(|(t, _)| !t.is_empty())
            .map(|(_, c)| c.nets())
            .sum();
        values.insert("op_p50_ms".into(), percentile(&cost_ns, 0.5) / 1e6);
        values.insert("op_p90_ms".into(), percentile(&cost_ns, 0.9) / 1e6);
        values.insert(
            "throughput_per_s".into(),
            routed_nets as f64 / (cost_ns.iter().sum::<f64>() / 1e9).max(1e-9),
        );
        let routed = p.route_ns.iter().map(Vec::len).sum::<usize>().max(1) as f64;
        let GridStats {
            expansions,
            vias,
            conflicts,
            retries,
            restarts,
        } = p.stats;
        for (name, total) in [
            ("route.grid.expansions", expansions),
            ("route.grid.vias", vias),
            ("route.grid.conflicts", conflicts),
            ("route.grid.retries", retries),
            ("route.grid.restarts", restarts),
        ] {
            values.insert(name.into(), total as f64 / routed);
        }
        let nets = p.nets.max(1) as f64;
        values.insert(
            "route.grid.expansions_per_net".into(),
            expansions as f64 / nets,
        );
        values.insert(
            "route.grid.first_try_frac".into(),
            nets / (nets + retries as f64),
        );
        values.insert(
            "route.river.p50_us".into(),
            percentile(&p.river_ns, 0.5) / 1e3,
        );
        // A verify pass over one pass's routes: each channel's fastest
        // verify, summed; its steps come from that same verify.
        let mut verify = [0u64; 4];
        for v in p
            .verify_ns
            .iter()
            .filter_map(|v| fastest(v, |x| x[0] as f64))
        {
            for (sum, x) in verify.iter_mut().zip(v) {
                *sum += x;
            }
        }
        let [total, clearance, mask, drc] = verify;
        values.insert("verify_s".into(), total as f64 / 1e9);
        values.insert("route.grid.clearance_ms".into(), clearance as f64 / 1e6);
        values.insert("sticks.mask_ms".into(), mask as f64 / 1e6);
        values.insert("drc.check_ms".into(), drc as f64 / 1e6);
        values.insert(
            "cif.flat_shapes".into(),
            p.mask_shapes.iter().sum::<usize>() as f64,
        );
        Phase {
            values,
            tally,
            spans: if traced { spans::take() } else { Vec::new() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Spec, Workload};

    #[test]
    fn channel_sets_are_fixed_and_the_seed_orders_them() {
        for w in [Workload::GridObstacles, Workload::GridRiverable] {
            let Spec::Grid(spec) = w.spec(true) else {
                panic!("{w:?} is a grid workload")
            };
            let a = GridBench::set_up(spec, 1).expect("set-up");
            let b = GridBench::set_up(spec, 1).expect("set-up");
            assert_eq!(a.order, b.order);
            let orders: Vec<Vec<usize>> = (1..8)
                .map(|seed| GridBench::set_up(spec, seed).expect("set-up").order)
                .collect();
            assert!(
                orders.iter().any(|o| *o != a.order),
                "the seed never reorders"
            );
            for (x, y) in a.channels.iter().zip(&b.channels) {
                assert_eq!(x.problem, y.problem);
                assert_eq!(x.obstacles, y.obstacles);
            }
        }
    }
}
