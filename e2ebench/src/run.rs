//! One run of one workload: set-up, gates, warm-up, the measured phase
//! (an untraced one, then a traced one when asked), and the run files.

use crate::grid::GridBench;
use crate::report::{self, Outcome, Values};
use crate::stats::median;
use crate::wire::WireBench;
use crate::workload::{GridSpec, Spec, WireSpec, Workload};
use crate::{Phase, Tally};
use riot::trace::{self, SpanRecord};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time. A traced run spends half untraced and half traced.
    pub seconds: f64,
    /// Traced run: per-layer metrics on the result line.
    pub traced: bool,
    /// Toy sizes (the smoke test).
    pub toy: bool,
    /// Where run files go; the server's scratch root lives under it
    /// while the run lasts.
    pub out: PathBuf,
}

/// Set-up is timed in windows spread over the run: one before the
/// measured phase, one between its units while the windows so far have
/// taken at most [`SETUP_SHARE`] of the time since, and one after it. A
/// window repeats set-up at least this many times...
const SETUP_REPS: usize = 3;
/// ...and for at least this long, and yields the median. `setup_s` is
/// the fastest window's median: the work is identical, and the host's
/// slow spells, which last seconds, only ever add time.
const SETUP_MIN: Duration = Duration::from_millis(100);
/// Share of the measured phase that set-up windows may take.
const SETUP_SHARE: f64 = 0.1;

/// One set-up window: sets up repeatedly, discarding all but the last;
/// returns the last and the median set-up time in seconds.
fn set_up<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let made = make()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPS && started.elapsed() >= SETUP_MIN {
            return Ok((made, median(&times)));
        }
        discard(made);
    }
}

/// The set-up windows of a run after the first.
struct Windows {
    medians: Vec<f64>,
    started: Instant,
    spent: Duration,
    error: Option<String>,
}

impl Windows {
    fn new(first_median: f64) -> Windows {
        Windows {
            medians: vec![first_median],
            started: Instant::now(),
            spent: Duration::ZERO,
            error: None,
        }
    }

    /// Times a window, unless `now` is false and the windows so far have
    /// taken more than `SETUP_SHARE` of the time since the first.
    fn tick<T>(
        &mut self,
        now: bool,
        make: impl FnMut() -> Result<T, String>,
        mut discard: impl FnMut(T),
    ) {
        if !now && self.spent > self.started.elapsed().mul_f64(SETUP_SHARE) {
            return;
        }
        let t = Instant::now();
        match set_up(make, &mut discard) {
            Ok((made, median)) => {
                discard(made);
                self.medians.push(median);
            }
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
        self.spent += t.elapsed();
    }

    /// `setup_s`: the fastest window's median.
    fn setup_s(self) -> Result<f64, String> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.medians.into_iter().fold(f64::INFINITY, f64::min)),
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the measured phases produced.
struct Measured {
    untraced: Values,
    traced: Option<(Values, Vec<SpanRecord>)>,
    setup_s: f64,
}

/// The untraced phase, then, for a traced run, the traced one; each
/// gets the run's time or, in a traced run, half of it. `measure` calls
/// its last argument between units; the untraced phase times set-up
/// windows there.
fn phases(
    opts: &RunOptions,
    tally: &mut Tally,
    between: &mut dyn FnMut(),
    mut measure: impl FnMut(Duration, bool, &mut dyn FnMut()) -> Phase,
) -> (Values, Option<(Values, Vec<SpanRecord>)>) {
    let share = if opts.traced { 0.5 } else { 1.0 };
    let budget = Duration::from_secs_f64(opts.seconds * share);
    let Phase {
        values, tally: t, ..
    } = measure(budget, false, between);
    tally.merge(t);
    let traced = opts.traced.then(|| {
        trace::enable(true);
        let Phase {
            values,
            tally: t,
            spans,
        } = measure(budget, true, &mut || {});
        trace::enable(false);
        tally.merge(t);
        (values, spans)
    });
    (values, traced)
}

fn measure_wire(
    opts: &RunOptions,
    spec: WireSpec,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let make = |dir: &Path| WireBench::set_up(spec, opts.seed, dir);
    let discard = |b: WireBench| {
        b.finish();
    };
    // Set-up windows after the first start their servers beside the
    // live one, in a directory of their own.
    let spare = dir.join("setup");
    std::fs::create_dir_all(&spare).map_err(|e| format!("{}: {e}", spare.display()))?;
    let (mut bench, first) = set_up(|| make(dir), discard)?;
    if let Err(e) = bench.gate() {
        for p in bench.finish() {
            tally.problem(p);
        }
        return Err(e);
    }
    bench.warm_up(tally);
    let mut windows = Windows::new(first);
    let (untraced, traced) = phases(
        opts,
        tally,
        &mut || windows.tick(false, || make(&spare), discard),
        |budget, traced, between| bench.measure(budget, traced, between),
    );
    for p in bench.finish() {
        tally.problem(p);
    }
    windows.tick(true, || make(&spare), discard);
    Ok(Measured {
        untraced,
        traced,
        setup_s: windows.setup_s()?,
    })
}

fn measure_grid(opts: &RunOptions, spec: GridSpec, tally: &mut Tally) -> Result<Measured, String> {
    let make = || GridBench::set_up(spec, opts.seed);
    let (bench, first) = set_up(make, drop)?;
    bench.warm_up(tally);
    let mut windows = Windows::new(first);
    let (untraced, traced) = phases(
        opts,
        tally,
        &mut || windows.tick(false, make, drop),
        |budget, traced, between| bench.measure(budget, traced, between),
    );
    windows.tick(true, make, drop);
    Ok(Measured {
        untraced,
        traced,
        setup_s: windows.setup_s()?,
    })
}

/// Where a run's files go: `<out>/<workload>-seed<S>-<pid>`.
fn stem(opts: &RunOptions) -> PathBuf {
    opts.out.join(format!(
        "{}-seed{}-{}{}",
        opts.workload.name(),
        opts.seed,
        std::process::id(),
        if opts.traced { "-traced" } else { "" }
    ))
}

/// Runs one workload and writes its run file (plus, for a traced run,
/// the Chrome trace and the per-layer table).
///
/// # Errors
///
/// The run directory or a run file cannot be written.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    // Layer code runs its `riot::geom::par` sections on one thread. The
    // pool spawns threads per call, and on a 2-vCPU VM they contend with
    // the server's workers and clients and with the VM's neighbours: over
    // ten seeds, grid_obstacles' median channel time spread 14% between
    // runs with two threads and 4% with one.
    riot::geom::par::set_threads(1);
    let stem = stem(opts);
    let dir = stem.with_extension("scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tally = Tally::default();
    let measured = match opts.workload.spec(opts.toy) {
        Spec::Wire(spec) => measure_wire(opts, spec, &dir, &mut tally),
        Spec::Grid(spec) => measure_grid(opts, spec, &mut tally),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = Outcome {
        workload: opts.workload.name().to_owned(),
        seed: opts.seed,
        traced: opts.traced,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        e2e: Vec::new(),
        layers: Vec::new(),
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            outcome.problems.push(e);
            return Ok(outcome);
        }
    };
    let mut e2e = m.untraced;
    e2e.insert("setup_s".into(), m.setup_s);
    e2e.insert("peak_rss_mb".into(), peak_rss_mb());
    outcome.e2e = report::resolve(&report::e2e_defs(), &e2e);
    let mut spans = Vec::new();
    if let Some((traced, s)) = m.traced {
        // A layer metric the untraced half measured comes from there, so
        // the budget adds up to the end-to-end metrics without the spans'
        // own cost; the traced half adds what only spans show (the serve
        // split) and the tracing overhead.
        let mut layers = e2e.clone();
        let (base, with) = (e2e.get("op_p50_ms"), traced.get("op_p50_ms"));
        if let (Some(&base), Some(&with)) = (base, with) {
            layers.insert("trace.overhead_pct".into(), 100.0 * (with - base) / base);
        }
        for (name, value) in traced {
            layers.entry(name).or_insert(value);
        }
        outcome.layers = report::resolve(&report::layer_defs(), &layers);
        spans = s;
    }
    let write = |ext: &str, text: &str| {
        let path = stem.with_extension(ext);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("json", &outcome.run_file())?;
    if opts.traced {
        write("trace.json", &riot::trace::export::chrome_trace_of(&spans))?;
        write("layers.txt", &outcome.layer_table())?;
    }
    Ok(outcome)
}
