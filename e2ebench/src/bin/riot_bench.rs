//! `riot-bench e2e`: the end-to-end benchmark.
//!
//! ```text
//! riot-bench e2e --workload NAME|all --seed S [--seconds N (18)] [--out DIR]
//!                [--traced | --trace 0|1]
//! riot-bench e2e compare DIR_A DIR_B
//! ```
//!
//! A run prints every metric as `workload metric value unit`, then one
//! JSON result line (`correct`, `attempted`, `failed`, `metrics`), and
//! writes a run file under `--out` (default `.bench_out`). `all` runs
//! each workload in a child process of its own, so `peak_rss_mb`
//! belongs to that workload alone. A failed correctness gate prints no
//! metric and exits 1. `compare` takes its bounds from the
//! `BENCHMARK.json` in the working directory.

use riot_e2e_bench::report;
use riot_e2e_bench::run::{run, RunOptions};
use riot_e2e_bench::workload::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: riot-bench e2e --workload NAME|all --seed S [--seconds N] [--out DIR] \
                     [--traced | --trace 0|1]\n       riot-bench e2e compare DIR_A DIR_B";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    toy: bool,
    out: PathBuf,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 18.0,
        traced: false,
        toy: false,
        out: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--traced" => args.traced = true,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            // Toy sizes: the smoke test runs every workload in seconds.
            "--toy" => args.toy = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let opts = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        toy: args.toy,
        out: args.out.clone(),
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("riot-bench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("riot-bench: {}: {p}", workload.name());
    }
    if outcome.correct() {
        print!("{}", outcome.lines());
        if args.traced {
            eprint!("{}", outcome.layer_table());
        }
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("riot-bench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["e2e", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&args.out)
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.toy {
            cmd.arg("--toy");
        }
        match cmd.stderr(Stdio::inherit()).output() {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("riot-bench: {}: cannot start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(mut it: impl Iterator<Item = String>) -> ExitCode {
    let (Some(a), Some(b), None) = (it.next(), it.next(), it.next()) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match report::compare(a.as_ref(), b.as_ref(), "BENCHMARK.json".as_ref()) {
        Ok((table, agree)) => {
            print!("{table}");
            if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("riot-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    if it.next().as_deref() != Some("e2e") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut it = it.peekable();
    if it.peek().map(String::as_str) == Some("compare") {
        it.next();
        return compare(it);
    }
    let args = match parse(it) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("riot-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `Editor::open` and `Server::start` enable tracing when RIOT_TRACE
    // is set, which would silently turn an untraced run into a traced
    // one.
    if !args.traced && std::env::var_os("RIOT_TRACE").is_some_and(|v| !v.is_empty()) {
        eprintln!("riot-bench: RIOT_TRACE is set; unset it or pass --trace 1");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    match Workload::parse(&args.workload) {
        Some(w) => run_one(&args, w),
        None => {
            eprintln!("riot-bench: unknown workload `{}`\n{USAGE}", args.workload);
            ExitCode::from(2)
        }
    }
}
