//! What every `riot-bench` suite shares: the `riot-bench/2` report, the
//! flag parser, the timing helpers, and the one path that checks a
//! report before it is written.
//!
//! A report is `{schema, suite, params, metrics}`. `params` (what the
//! run was asked to do) and `metrics` (what it measured) are flat maps
//! from a name to a non-negative integer: nanoseconds or a count. An
//! axis point goes in the name, as in `recovery.8000.snapshot_ns` or
//! `conns.1024.elapsed_ns`. Ratios such as speedups and rates are never
//! stored; a suite derives them from the integers when it prints or
//! checks them, so no stored ratio can disagree with its inputs.

use riot::drc::Violation;
use riot::trace::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// The schema tag every report carries.
pub const SCHEMA: &str = "riot-bench/2";

/// One suite run: its inputs and its raw measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The suite that made it: `spatial`, `incremental`, `route`,
    /// `profile`, `serve` or `fig9`.
    pub suite: String,
    /// What the run was asked to do.
    pub params: BTreeMap<String, u64>,
    /// What it measured.
    pub metrics: BTreeMap<String, u64>,
}

impl Report {
    /// An empty report of `suite`, run with `params`.
    pub(crate) fn new(suite: &str, params: &[(&str, usize)]) -> Report {
        Report {
            suite: suite.to_owned(),
            params: params
                .iter()
                .map(|&(k, v)| (k.to_owned(), v as u64))
                .collect(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records metric `name`.
    pub(crate) fn set(&mut self, name: impl Into<String>, value: u64) {
        self.metrics.insert(name.into(), value);
    }

    /// Metric `name`, or an error naming it when it is missing.
    ///
    /// # Errors
    ///
    /// The metric is missing.
    pub fn get(&self, name: &str) -> Result<u64, String> {
        self.metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("no metric `{name}`"))
    }

    /// Metric `name`, or an error when it is missing or zero.
    pub(crate) fn positive(&self, name: &str) -> Result<u64, String> {
        match self.get(name)? {
            0 => Err(format!("`{name}` is zero")),
            v => Ok(v),
        }
    }

    /// Param `name`, or an error naming it when it is missing.
    ///
    /// # Errors
    ///
    /// The param is missing.
    pub fn param(&self, name: &str) -> Result<u64, String> {
        self.params
            .get(name)
            .copied()
            .ok_or_else(|| format!("no param `{name}`"))
    }

    /// Every `prefix.N.measure` metric as `(N, value)`, ordered by `N`:
    /// `axis("conns", "elapsed_ns")` reads the connection axis.
    pub fn axis(&self, prefix: &str, measure: &str) -> Vec<(u64, u64)> {
        let mut points: Vec<(u64, u64)> = self
            .metrics
            .iter()
            .filter_map(|(name, &v)| {
                let rest = name.strip_prefix(prefix)?.strip_prefix('.')?;
                let point = rest.strip_suffix(measure)?.strip_suffix('.')?;
                Some((point.parse().ok()?, v))
            })
            .collect();
        points.sort_unstable();
        points
    }

    /// The report as a JSON value.
    fn to_value(&self) -> Value {
        let ints = |m: &BTreeMap<String, u64>| {
            Value::Object(
                m.iter()
                    .map(|(k, &v)| (k.clone(), Value::Int(v.into())))
                    .collect(),
            )
        };
        Value::Object(BTreeMap::from([
            ("schema".to_owned(), Value::Str(SCHEMA.to_owned())),
            ("suite".to_owned(), Value::Str(self.suite.clone())),
            ("params".to_owned(), ints(&self.params)),
            ("metrics".to_owned(), ints(&self.metrics)),
        ]))
    }

    /// Reads report text with [`Value::parse`].
    ///
    /// # Errors
    ///
    /// The text is not JSON, or not a `riot-bench/2` report whose
    /// params and metrics are all non-negative integers.
    pub fn parse(text: &str) -> Result<Report, String> {
        let v = Value::parse(text)?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("schema is {schema:?}, not {SCHEMA}"));
        }
        let suite = v
            .get("suite")
            .and_then(Value::as_str)
            .ok_or("no suite name")?;
        let ints = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            let Some(Value::Object(m)) = v.get(key) else {
                return Err(format!("no `{key}` object"));
            };
            m.iter()
                .map(|(k, x)| {
                    x.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("{key}.{k} is not a non-negative integer"))
                })
                .collect()
        };
        Ok(Report {
            suite: suite.to_owned(),
            params: ints("params")?,
            metrics: ints("metrics")?,
        })
    }

    /// The report as JSON text, one entry per line.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_value(), 0, &mut out);
        out.push('\n');
        out
    }
}

/// Writes `v` with every non-empty object spread one entry per line.
fn pretty(v: &Value, depth: usize, out: &mut String) {
    let Value::Object(m) = v else {
        out.push_str(&v.to_string());
        return;
    };
    if m.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    for (i, (k, x)) in m.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(&format!("{}: ", Value::Str(k.clone())));
        pretty(x, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push('}');
}

/// Runs the checks of the suite that made `report`.
///
/// # Errors
///
/// The first check that fails, or an unknown suite.
pub fn check(report: &Report) -> Result<(), String> {
    match report.suite.as_str() {
        "spatial" => crate::spatial::check(report),
        "incremental" => crate::incremental::check(report),
        "route" => crate::route::check(report),
        "profile" => crate::profile::check(report),
        "serve" => crate::serve::check(report),
        "fig9" => crate::fig9::check(report),
        other => Err(format!("unknown suite `{other}`")),
    }
}

/// The one way a report reaches disk: serialize it, read the text back
/// with [`Value::parse`], check what was read, and only then write the
/// text to `--out` (default `BENCH_<suite>.json`). A report that fails
/// its checks writes nothing.
pub(crate) fn write(report: &Report, flags: &Flags) -> Result<(), String> {
    let text = report.to_json();
    check(&Report::parse(&text)?)?;
    let default = format!("BENCH_{}.json", report.suite);
    let out = flags.text("--out").unwrap_or(&default);
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// A suite's command line: `--name value` pairs, each a name the suite
/// accepts, and positional words.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    /// The words that are neither flags nor flag values, in order.
    pub(crate) positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for a suite that accepts the flags in `known` and
    /// at most `max_positional` positional words.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without a value, or one word too many.
    pub fn parse(args: &[String], known: &[&str], max_positional: usize) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg.starts_with("--") {
                if !known.contains(&arg.as_str()) {
                    return Err(format!("unknown flag `{arg}`"));
                }
                let value = it.next().ok_or_else(|| format!("`{arg}` needs a value"))?;
                flags.values.insert(arg.clone(), value.clone());
            } else if flags.positional.len() < max_positional {
                flags.positional.push(arg.clone());
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(flags)
    }

    /// The value given for `name`, if any.
    pub(crate) fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// `name` as an integer, `default` when it was not given.
    pub(crate) fn num(&self, name: &str, default: usize) -> Result<usize, String> {
        self.text(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("`{name}` wants an integer, got `{v}`"))
        })
    }

    /// `name` as comma-separated integers, `default` when it was not
    /// given.
    pub(crate) fn list(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        self.text(name).map_or(Ok(default.to_vec()), |v| {
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("`{name}` wants N,N,..., got `{v}`"))
                })
                .collect()
        })
    }
}

/// Runs `f` once: its wall time in nanoseconds, and its result.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t = Instant::now();
    let r = f();
    (u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX), r)
}

/// The fastest of `iters` runs of `f` (at least one), and the last
/// result. The minimum, not the mean: the suites compare steady-state
/// costs.
pub(crate) fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let (ns, r) = timed(&mut f);
        best = best.min(ns);
        out = Some(r);
    }
    (best, out.expect("at least one run"))
}

/// `vs` in a canonical order, for comparing two checkers' results.
pub(crate) fn violation_keys(vs: Vec<Violation>) -> Vec<String> {
    let mut keys: Vec<String> = vs.into_iter().map(|v| format!("{v:?}")).collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn report_round_trips_through_value_parse() {
        let mut r = Report::new("route", &[("nets", 256)]);
        r.set("grid.solve_ns", u64::MAX);
        r.set("conns.64.elapsed_ns", 7);
        let text = r.to_json();
        assert!(text.contains("\"schema\": \"riot-bench/2\""));
        assert_eq!(Report::parse(&text).unwrap(), r);
        assert_eq!(Value::parse(&text).unwrap(), r.to_value());
    }

    #[test]
    fn parse_rejects_other_schemas_and_non_integers() {
        let good = Report::new("spatial", &[("shapes", 10)]).to_json();
        assert!(Report::parse(&good).is_ok());
        for bad in [
            good.replace("riot-bench/2", "riot-bench/1"),
            good.replace("10", "-10"),
            good.replace("10", "\"10\""),
            good.replace("\"suite\": \"spatial\"", "\"suite\": 3"),
            "{\"schema\": \"riot-bench/2\", \"suite\": \"x\"}".to_owned(),
        ] {
            assert!(Report::parse(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn axis_orders_points_numerically() {
        let mut r = Report::new("serve", &[]);
        for n in [1024, 64, 256] {
            r.set(format!("conns.{n}.elapsed_ns"), n as u64 * 10);
            r.set(format!("conns.{n}.commands_total"), 1);
        }
        r.set("conns_elapsed_ns", 1);
        assert_eq!(
            r.axis("conns", "elapsed_ns"),
            vec![(64, 640), (256, 2560), (1024, 10240)]
        );
    }

    #[test]
    fn flags_reject_unknown_missing_and_extra_words() {
        let known = &["--out", "--iters"];
        let f = Flags::parse(&args(&["--iters", "3", "j.replay"]), known, 1).unwrap();
        assert_eq!(f.num("--iters", 1).unwrap(), 3);
        assert_eq!(f.num("--shapes", 9).unwrap(), 9);
        assert_eq!(f.positional, ["j.replay"]);
        assert!(Flags::parse(&args(&["--bogus", "20"]), known, 0).is_err());
        assert!(Flags::parse(&args(&["--out"]), known, 0).is_err());
        assert!(Flags::parse(&args(&["stray"]), known, 0).is_err());
        let f = Flags::parse(&args(&["--iters", "x"]), known, 0).unwrap();
        assert!(f.num("--iters", 1).is_err());
    }

    #[test]
    fn write_checks_before_it_writes() {
        let dir = std::env::temp_dir().join(format!("riot-bench-write-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("r.json");
        let flags = Flags::parse(&args(&["--out", out.to_str().unwrap()]), &["--out"], 0).unwrap();
        for failing in [
            Report::new("profile", &[("commands", 0)]),
            Report::new("fig9", &[("passes", 3)]),
        ] {
            assert!(write(&failing, &flags).is_err());
            assert!(!out.exists(), "a failed check must write nothing");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
