//! `riot-bench`: every micro-benchmark suite behind one command line.
//! Each suite asserts its correctness conditions before it times
//! anything, and writes one `riot-bench/2` report only after the
//! report passes its checks. See `riot_bench::harness`.

use riot_bench::harness::Flags;
use riot_bench::{fig9, incremental, profile, route, serve, spatial};
use std::process::ExitCode;

const USAGE: &str = "\
riot-bench: the RIOT micro-benchmark suites, one riot-bench/2 report each

USAGE:
    riot-bench spatial [--shapes N] [--levels L] [--fanout F] [--top-calls C]
                       [--iters K] [--out PATH]
    riot-bench incremental [--leaf-shapes L] [--grid G] [--iters K] [--out PATH]
    riot-bench route [--nets N] [--obstacles K] [--iters I] [--out PATH]
    riot-bench profile JOURNAL [--out PATH] [--chrome PATH]
    riot-bench profile gen [PATH]
    riot-bench serve [--socket PATH | --addr HOST:PORT] [--sessions N]
                     [--commands M] [--window W] [--conn-scale N,N,...]
                     [--out PATH]
    riot-bench fig9 [--out PATH]

--out defaults to BENCH_<suite>.json. `serve` with --socket or --addr
drives that server for one run; with neither it runs one run, the
recovery curve and the connection axis (--conn-scale, default
64,256,1024) against private servers. `fig9` times the paper's Fig 9
logic, routed and stretched, at 64/128/256/512 bits.

The end-to-end benchmark, `riot-bench e2e`, is a package of its own:
    cargo run --release --manifest-path e2ebench/Cargo.toml --bin riot-bench -- e2e

GLOBAL:
    -h, --help         this help
    -V, --version      print version and exit
";

type Suite = fn(&Flags) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let (run, known, positional): (Suite, &[&str], usize) = match name {
        "spatial" => (spatial::run, spatial::FLAGS, 0),
        "incremental" => (incremental::run, incremental::FLAGS, 0),
        "route" => (route::run, route::FLAGS, 0),
        "profile" => (profile::run, profile::FLAGS, 2),
        "serve" => (serve::run, serve::FLAGS, 0),
        "fig9" => (fig9::run, fig9::FLAGS, 0),
        "-V" | "--version" => {
            println!("riot-bench {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        "-h" | "--help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("riot-bench: unknown suite `{name}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = match Flags::parse(&args[1..], known, positional) {
        Ok(flags) => flags,
        Err(e) => {
            eprint!("riot-bench {name}: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("riot-bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
