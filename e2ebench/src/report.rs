//! The metric catalogue, the run files, and `compare`.
//!
//! Every metric a run can report is declared here once, with its unit,
//! the layer it measures and the end-to-end metric it should move. A
//! run reports every declared metric of its kind; a layer the workload
//! never enters reads 0. `BENCHMARK.json` declares exactly the same
//! names (the smoke test checks both directions).

use crate::json::{quote, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Schema tag of a run file.
pub const SCHEMA: &str = "riot-bench-e2e/1";

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Layer the metric measures (`e2e` for end-to-end ones).
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name: name.into(),
        unit,
        layer,
        moves,
    }
}

/// Journal command kinds whose engine cost is reported per kind: the
/// first word of each line the Fig 9 journals contain.
pub const CORE_KINDS: [&str; 10] = [
    "create",
    "translate",
    "connect",
    "clearpend",
    "abut",
    "route",
    "stretch",
    "replicate",
    "bringout",
    "finish",
];

/// The end-to-end metrics. An operation is one wire command on the
/// Fig 9 workloads and one routed channel on the grid workloads; a
/// verify pass checks what the operations built.
pub fn e2e_defs() -> Vec<Def> {
    vec![
        def(
            "op_p50_ms",
            "ms",
            "e2e",
            "median command RTT / channel route time",
        ),
        def(
            "op_p90_ms",
            "ms",
            "e2e",
            "90th-percentile command RTT / channel route time",
        ),
        def(
            "throughput_per_s",
            "1/s",
            "e2e",
            "acknowledged commands per second / routed nets per second",
        ),
        def("verify_s", "s", "e2e", "fastest verify pass"),
        def(
            "setup_s",
            "s",
            "e2e",
            "median set-up, fastest of the run's windows",
        ),
        def("peak_rss_mb", "MB", "e2e", "VmHWM of the run's process"),
    ]
}

/// The per-layer metrics, reported by traced runs.
pub fn layer_defs() -> Vec<Def> {
    let fig9_p50 = "op_p50_ms on fig9a/fig9b_interactive, throughput_per_s on fig9a_script";
    let mut v = vec![
        def("serve.rtt_us", "us", "serve (traced commands)", fig9_p50),
        def("serve.decode_us", "us", "serve.frame.decode", fig9_p50),
        def("serve.queue_wait_us", "us", "serve.queue.wait", fig9_p50),
        def("serve.apply_us", "us", "serve.cmd.apply", fig9_p50),
        def("serve.wal_flush_us", "us", "serve.wal.flush", fig9_p50),
        def(
            "serve.unattributed_us",
            "us",
            "serve (commit window, reply path, socket)",
            fig9_p50,
        ),
        def("serve.overhead_p50_us", "us", "serve", fig9_p50),
        def("serve.fsyncs_per_cmd", "1/cmd", "serve.wal", fig9_p50),
        def(
            "serve.snapshots_per_kcmd",
            "1/kcmd",
            "serve.snapshot",
            "throughput_per_s on fig9a_script",
        ),
        def(
            "serve.reopen_ms",
            "ms",
            "serve.recovery",
            "user-visible reopen latency on fig9* (no end-to-end row: grid workloads have no sessions)",
        ),
        def(
            "serve.recovered_records",
            "count",
            "serve.recovery",
            "serve.reopen_ms on fig9*",
        ),
    ];
    for kind in CORE_KINDS {
        let moves = match kind {
            "route" | "abut" => "op_p50_ms on fig9a_interactive and fig9a_script; not fig9b",
            "stretch" => "op_p50_ms on fig9b_interactive; not fig9a",
            _ => "op_p50_ms on fig9*",
        };
        v.push(def(format!("core.{kind}.p50_us"), "us", "core", moves));
        v.push(def(format!("core.{kind}.total_ms"), "ms", "core", moves));
    }
    let verify = "verify_s on fig9* (drc most on fig9a_script, least on fig9b)";
    let grid_verify = "verify_s on grid_*";
    let grid = "throughput_per_s and op_p90_ms on grid_riverable, then grid_obstacles";
    v.extend([
        def("core.replay_ms", "ms", "core", "op_p50_ms on fig9*"),
        def("core.us_per_cmd", "us", "core", "op_p50_ms on fig9*"),
        def("core.export_ms", "ms", "core.export", verify),
        def("cif.flatten_ms", "ms", "cif", verify),
        def("cif.write_ms", "ms", "cif", verify),
        def("cif.bytes", "bytes", "cif", verify),
        def(
            "cif.flat_shapes",
            "count",
            "cif / sticks.mask",
            "verify_s on every workload",
        ),
        def("drc.check_ms", "ms", "drc", "verify_s on every workload"),
        def(
            "drc.violations",
            "count",
            "drc",
            "verify_s on every workload",
        ),
        def("sticks.mask_ms", "ms", "sticks.mask", grid_verify),
        def("route.grid.clearance_ms", "ms", "route.grid", grid_verify),
        def("route.grid.expansions", "count", "route.grid", grid),
        def("route.grid.expansions_per_net", "count", "route.grid", grid),
        def("route.grid.retries", "count", "route.grid", grid),
        def("route.grid.restarts", "count", "route.grid", grid),
        def("route.grid.conflicts", "count", "route.grid", grid),
        def("route.grid.vias", "count", "route.grid", grid),
        def("route.grid.first_try_frac", "ratio", "route.grid", grid),
        def(
            "route.river.p50_us",
            "us",
            "route.river",
            "nothing under a grid change (grid_riverable bypass)",
        ),
        def(
            "trace.overhead_pct",
            "%",
            "riot-trace",
            "nothing: traced minus untraced op_p50_ms, same run",
        ),
    ]);
    v
}

/// A measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// Every metric of `defs` in order, read from `values`; 0 for a layer
/// the workload never entered.
///
/// # Panics
///
/// When `values` holds a name no catalogue declares — a bug in the
/// benchmark, caught by the smoke test.
pub fn resolve(defs: &[Def], values: &Values) -> Vec<Metric> {
    let declared: Vec<Def> = e2e_defs().into_iter().chain(layer_defs()).collect();
    for name in values.keys() {
        assert!(
            declared.iter().any(|d| &d.name == name),
            "metric `{name}` is not declared"
        );
    }
    defs.iter()
        .map(|d| Metric {
            name: d.name.clone(),
            value: values.get(&d.name).copied().unwrap_or(0.0),
            unit: d.unit,
        })
        .collect()
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Its seed.
    pub seed: u64,
    /// Whether it was a traced run.
    pub traced: bool,
    /// Operations attempted: wire requests, channels, verify passes.
    pub attempted: u64,
    /// Operations that failed: an error, busy, lost or mismatched
    /// reply, an unrouted or unclean channel, a verify pass that
    /// disagreed with set-up.
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics (the untraced half of a traced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// All gates passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// `workload metric value unit`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in self.e2e.iter().chain(&self.layers) {
            let _ = writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        out
    }

    /// The final result line. Its metrics are the per-layer ones for a
    /// traced run and the end-to-end ones otherwise, and none at all
    /// when a gate failed.
    pub fn result_line(&self) -> String {
        let headline = if self.traced { &self.layers } else { &self.e2e };
        let metrics = if self.correct() {
            headline.as_slice()
        } else {
            &[]
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(metrics)
        )
    }

    /// The run file: everything measured, plus the gate failures.
    pub fn run_file(&self) -> String {
        let all: Vec<Metric> = self.e2e.iter().chain(&self.layers).cloned().collect();
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"schema\": {}, \"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"problems\": [{}]}}\n",
            quote(SCHEMA),
            quote(&self.workload),
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&all),
            problems.join(", ")
        )
    }

    /// The per-layer table of a traced run: layer, metric, value, and
    /// the end-to-end metric it should move.
    pub fn layer_table(&self) -> String {
        let defs = layer_defs();
        let mut out = format!(
            "# {} seed {}: per-layer budget (traced run)\n{:<42} {:<32} {:>14} {:<6} moves\n",
            self.workload, self.seed, "layer", "metric", "value", "unit"
        );
        for m in &self.layers {
            let d = defs
                .iter()
                .find(|d| d.name == m.name)
                .expect("resolve only yields declared metrics");
            let _ = writeln!(
                out,
                "{:<42} {:<32} {:>14.3} {:<6} {}",
                d.layer, m.name, m.value, m.unit, d.moves
            );
        }
        out
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The bound of each end-to-end metric in a `BENCHMARK.json`.
///
/// # Errors
///
/// Unreadable or malformed file.
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_owned(), m.get("bound")?.num()?)))
        .collect())
}

/// Every `(workload, metric)` sample in the run files of `dir`.
fn load_runs(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let name = p.to_string_lossy();
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(doc) = Json::parse(&text) else {
            continue; // a Chrome trace or another tool's file
        };
        if doc.get("schema").and_then(Json::str) != Some(SCHEMA) {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::str).unwrap_or("?");
        for (name, m) in doc.get("metrics").map(Json::members).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::num) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// `compare DIR_A DIR_B`: per `(workload, metric)` the median and
/// quartiles of each side, and whether B's median is within the
/// metric's bound of A's. Returns the table and whether every bounded
/// metric agreed.
///
/// # Errors
///
/// Unreadable directories or bounds file.
pub fn compare(a: &Path, b: &Path, bounds_file: &Path) -> Result<(String, bool), String> {
    let bounds = load_bounds(bounds_file)?;
    let (ra, rb) = (load_runs(a)?, load_runs(b)?);
    let mut out = format!(
        "{:<18} {:<30} {:>4} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  verdict\n",
        "workload", "metric", "n", "median A", "q1..q3 A", "median B", "q1..q3 B", "delta", "bound"
    );
    let mut all_agree = true;
    for (key, va) in &ra {
        let Some(vb) = rb.get(key) else { continue };
        let (ma, mb) = (median(va), median(vb));
        let (qa, qb) = (quartiles(va), quartiles(vb));
        let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let (bound, verdict) = match bounds.get(&key.1) {
            Some(&bound) => {
                let agree = delta.abs() <= bound;
                all_agree &= agree;
                (
                    format!("{bound:.2}"),
                    if agree { "agree" } else { "DIFFER" },
                )
            }
            None => ("-".to_owned(), "-"),
        };
        let _ = writeln!(
            out,
            "{:<18} {:<30} {:>4} {:>12.4} {:>23} {:>12.4} {:>23} {:>+7.1}% {:>6}  {verdict}",
            key.0,
            key.1,
            va.len().min(vb.len()),
            ma,
            format!("{:.4}..{:.4}", qa[0], qa[2]),
            mb,
            format!("{:.4}..{:.4}", qb[0], qb[2]),
            100.0 * delta,
            bound,
        );
    }
    Ok((out, all_agree))
}
