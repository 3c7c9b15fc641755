//! `riot-bench e2e`: the paper's own workload end to end.
//!
//! The Fig 9 filter logic is assembled command by command through a live
//! `riot-serve` over a Unix socket and then verified (CIF export,
//! flatten, DRC, CIF text); channels the river router cannot (or can)
//! route go through the grid router in-process. Every run checks its
//! outputs before it prints a number, reports end-to-end metrics with
//! tracing off, and a traced run adds a budget for each layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig9;
pub mod grid;
pub mod json;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod wire;
pub mod workload;

/// What one measured phase produced.
pub struct Phase {
    /// Every metric the phase measured, by name.
    pub values: report::Values,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The spans a traced phase collected.
    pub spans: Vec<riot::trace::SpanRecord>,
}

/// Operations attempted and failed in a phase, and what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: wire requests, channels, verify passes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures and every gate failure seen, one line
    /// each.
    pub problems: Vec<String>,
}

impl Tally {
    /// Failures described beyond this many are only counted.
    const KEPT: usize = 16;

    /// Counts a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    /// Records a correctness-gate failure.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < Self::KEPT {
            self.problems.push(what);
        }
    }

    /// Adds `other` into this tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            self.problem(p);
        }
    }
}
