//! The five workloads and their sizes.
//!
//! Work is cut into fixed units: a wire session (open, the whole
//! journal, close, reopen, close), a verify pass, a pass over a channel
//! set. A run repeats whole units until its share of `--seconds` is
//! spent, so two builds always do identical units and every metric is a
//! per-unit or per-operation figure.

use riot::filter::LogicStyle;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 9a routed logic, closed loop over the wire.
    Fig9aInteractive,
    /// Fig 9b stretched logic, closed loop over the wire.
    Fig9bInteractive,
    /// Fig 9a routed logic at twice the size, pipelined over the wire.
    Fig9aScript,
    /// Layer-changing channels with obstacles, grid engine in-process.
    GridObstacles,
    /// River-routable channels, grid engine plus the river reference.
    GridRiverable,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::Fig9aInteractive,
        Workload::Fig9bInteractive,
        Workload::Fig9aScript,
        Workload::GridObstacles,
        Workload::GridRiverable,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9aInteractive => "fig9a_interactive",
            Workload::Fig9bInteractive => "fig9b_interactive",
            Workload::Fig9aScript => "fig9a_script",
            Workload::GridObstacles => "grid_obstacles",
            Workload::GridRiverable => "grid_riverable",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape. `toy` shrinks every unit so the whole suite
    /// runs in seconds (the smoke test).
    pub fn spec(self, toy: bool) -> Spec {
        let wire = |bits, style, window| {
            Spec::Wire(WireSpec {
                bits: if toy { 8 } else { bits },
                style,
                window,
            })
        };
        match self {
            Workload::Fig9aInteractive => wire(256, LogicStyle::Routed, 1),
            Workload::Fig9bInteractive => wire(256, LogicStyle::Stretched, 1),
            Workload::Fig9aScript => wire(512, LogicStyle::Routed, 32),
            Workload::GridObstacles => Spec::Grid(GridSpec {
                channels: if toy { 3 } else { 128 },
                nets: if toy { (16, 24) } else { (16, 128) },
                obstacles: true,
                pool_seed: GRID_OBSTACLES_POOL,
            }),
            // 16 channels, not more: a channel's cost is the fastest of
            // its passes, and a smaller set gets more passes in a run.
            // Over eight seeds, runs alternating on the same host, 64
            // channels (about 7 passes a thread) spread op_p50_ms 14%
            // and verify_s 9%; 16 channels (about 30) 8% and 6%.
            Workload::GridRiverable => Spec::Grid(GridSpec {
                channels: if toy { 3 } else { 16 },
                nets: if toy { (8, 12) } else { (8, 48) },
                obstacles: false,
                pool_seed: GRID_RIVERABLE_POOL,
            }),
        }
    }
}

/// Generator seed of the `grid_obstacles` channel set.
const GRID_OBSTACLES_POOL: u64 = 0x0B57_0000;

/// Generator seed of the `grid_riverable` channel set. The grid engine
/// fails (`Unroutable`) on up to a few tenths of a percent of
/// river-routable channels in this size range (README, findings); all
/// 16 channels of this set route, so the workload times routing, not
/// failures.
const GRID_RIVERABLE_POOL: u64 = 0x21_7E40;

/// Client connections (one thread each); the host has 2 cores.
pub const CONNECTIONS: usize = 2;

/// riot-serve worker threads.
pub const WORKERS: usize = 2;

/// Threads that run the CPU-bound units at once: grid passes, and Fig 9
/// verify passes. The host's slow spells often hold one vCPU and not the
/// other, so a unit's fastest time, taken over both, rarely comes from a
/// spell: over eight seeds, two threads cut `grid_riverable`'s spreads
/// to about half of one thread's, at about the same medians.
pub const SAMPLERS: usize = 2;

/// Shape of a wire workload: which journal, and how it is sent.
#[derive(Debug, Clone, Copy)]
pub struct WireSpec {
    /// Filter width; the journal is fixed by this and the style.
    pub bits: usize,
    /// Fig 9a (routed) or Fig 9b (stretched).
    pub style: LogicStyle,
    /// Requests a connection keeps in flight (1 = closed loop).
    pub window: usize,
}

/// Shape of a grid workload: one fixed channel set, routed in passes.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Channels in the set.
    pub channels: usize,
    /// Smallest and largest net count; sizes step evenly between them.
    pub nets: (usize, usize),
    /// Layer-changing channels with obstacles, or river-routable ones.
    pub obstacles: bool,
    /// Base generator seed of the channel set.
    pub pool_seed: u64,
}

/// The shape of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Spec {
    /// The Fig 9 journal replayed through riot-serve.
    Wire(WireSpec),
    /// Channels routed in-process.
    Grid(GridSpec),
}
