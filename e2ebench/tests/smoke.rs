//! Every workload at toy size, end to end through the binary: each run
//! must pass its gates and emit exactly the metrics `BENCHMARK.json`
//! declares for its mode, with the declared units.

use riot_e2e_bench::json::Json;
use riot_e2e_bench::report;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `name -> unit` of one section of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run_all(dir: &Path, traced: bool) -> String {
    // A relative `--out` keeps the server's Unix socket path short.
    let out = Command::new(env!("CARGO_BIN_EXE_riot-bench"))
        .current_dir(dir)
        .args([
            "e2e",
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "0.5",
        ])
        .args([
            "--toy",
            "--out",
            "runs",
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env_remove("RIOT_TRACE")
        .output()
        .expect("riot-bench starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "riot-bench failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.contains_key("setup_s"));
    for traced in [false, true] {
        let dir = scratch(if traced { "smoke-traced" } else { "smoke" });
        let stdout = run_all(&dir, traced);
        let want = if traced { &layers } else { &e2e };
        let results: Vec<Json> = stdout
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| Json::parse(l).expect("result line is JSON"))
            .collect();
        assert_eq!(results.len(), 5, "one result line per workload:\n{stdout}");
        for r in &results {
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            let got: BTreeMap<String, String> = r
                .get("metrics")
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .map(|(k, m)| {
                    (
                        k.clone(),
                        m.get("unit").and_then(Json::str).unwrap_or("").to_owned(),
                    )
                })
                .collect();
            assert_eq!(&got, want, "traced={traced}");
        }
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            let f: Vec<&str> = line.split(' ').collect();
            assert_eq!(f.len(), 4, "`workload metric value unit`: {line}");
            let unit = e2e.get(f[1]).or_else(|| layers.get(f[1]));
            assert_eq!(
                unit.map(String::as_str),
                Some(f[3]),
                "undeclared metric: {line}"
            );
        }
        let files: Vec<String> = std::fs::read_dir(dir.join("runs"))
            .expect("run files written")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        let count = |suffix: &str| files.iter().filter(|f| f.ends_with(suffix)).count();
        assert_eq!(count(".json") - count(".trace.json"), 5, "{files:?}");
        if traced {
            assert_eq!(count(".trace.json"), 5, "{files:?}");
            assert_eq!(count(".layers.txt"), 5, "{files:?}");
        }
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let names = |defs: Vec<report::Def>| -> BTreeMap<String, String> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_owned()))
            .collect()
    };
    assert_eq!(names(report::e2e_defs()), declared("end_to_end"));
    assert_eq!(names(report::layer_defs()), declared("per_layer"));
}

#[test]
fn compare_reports_agreement_within_bounds() {
    let dir = scratch("compare");
    let run = |side: &str, i: usize, p50: f64| {
        let body = format!(
            "{{\"schema\": \"{}\", \"workload\": \"w\", \"seed\": 1, \"metrics\": \
             {{\"op_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}",
            report::SCHEMA
        );
        let d = dir.join(side);
        std::fs::create_dir_all(&d).expect("side directory");
        std::fs::write(d.join(format!("r{i}.json")), body).expect("run file");
    };
    for (i, v) in [1.0, 1.02, 0.98].into_iter().enumerate() {
        run("a", i, v);
        run("b", i, v * 1.05);
        run("c", i, v * 1.5);
    }
    let bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let (table, agree) = report::compare(&dir.join("a"), &dir.join("b"), &bounds).expect("compare");
    assert!(agree, "{table}");
    assert!(table.contains("op_p50_ms"), "{table}");
    let (table, agree) = report::compare(&dir.join("a"), &dir.join("c"), &bounds).expect("compare");
    assert!(!agree, "{table}");
    assert!(table.contains("DIFFER"), "{table}");
}
