//! `riot-serve`: the headless multi-session composition server.
//!
//! ```text
//! riot-serve serve --addr 127.0.0.1:7117 --root ./riot-serve-data
//! riot-serve serve --socket /tmp/riot.sock --root ./riot-serve-data
//! riot-serve bench --addr 127.0.0.1:7117 --sessions 4 --commands 1000
//! riot-serve bench --spawn --out BENCH_serve.json
//! riot-serve stats --socket /tmp/riot.sock [--session NAME]
//! riot-serve telemetry --socket /tmp/riot.sock [--json]
//! riot-serve dump --socket /tmp/riot.sock
//! riot-serve shutdown --socket /tmp/riot.sock
//! ```
//!
//! `serve` blocks until a client sends the `shutdown` verb (or the
//! process receives a signal). `bench` either connects to a running
//! server (`--addr`/`--socket`) or, with `--spawn`, starts a private
//! Unix-socket server in a temp directory, drives it, and drains it —
//! the zero-setup path CI uses. The report is schema-validated before
//! a single number is printed or written.

use riot_serve::{
    run_bench, run_suite, BenchConfig, Bind, BoundAddr, Client, ServeConfig, Server,
    TelemetryFormat,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
riot-serve: headless multi-session composition server (RIOTSRV2)

USAGE:
    riot-serve serve [--addr HOST:PORT | --socket PATH] [OPTIONS]
    riot-serve bench [--addr HOST:PORT | --socket PATH | --spawn] [OPTIONS]
    riot-serve stats (--addr HOST:PORT | --socket PATH) [--session NAME]
    riot-serve telemetry (--addr HOST:PORT | --socket PATH) [--json]
    riot-serve dump (--addr HOST:PORT | --socket PATH)
    riot-serve shutdown (--addr HOST:PORT | --socket PATH)

SERVE OPTIONS:
    --addr HOST:PORT   TCP listen address (default 127.0.0.1:7117)
    --socket PATH      Unix-domain socket (overrides --addr)
    --root DIR         WAL directory (default ./riot-serve-data)
    --threads N        worker threads (default: RIOT_SERVE_THREADS or
                       machine parallelism, clamped to 1..=64)
    --telemetry-addr HOST:PORT
                       serve /metrics, /metrics.json, /flightrec and
                       /healthz over HTTP on this address
    --slow-ms MS       slow-command log threshold (default 100)
    --snapshot-every N cut a RIOTSNAP1 snapshot and compact the WAL
                       every N journal records (default 1000; 0 = off)

BENCH OPTIONS:
    --spawn            start a private Unix-socket server for the run
    --suite            spawn private servers and report one run, the
                       recovery curve and the connection-scaling axis
                       (implies --spawn)
    --sessions N       concurrent client connections (default 4)
    --commands M       commands per session (default 1000)
    --window W         pipelined requests in flight (default 32)
    --conn-scale LIST  comma-separated connection counts for the
                       suite's scaling axis (default 64,256,1024)
    --snapshot-every N spawned-server snapshot interval (as for serve)
    --out PATH         write the JSON report here (default: stdout only)

STATS OPTIONS:
    --session NAME     one session's engine counters (cache hit rate,
                       damage totals) instead of the pool-wide line

TELEMETRY OPTIONS:
    --json             JSON snapshot instead of Prometheus text

GLOBAL:
    -h, --help         this help
    -V, --version      print version and exit
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-V" || a == "--version") {
        println!("riot-serve {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(&argv[1..]),
        Some("bench") => cmd_bench(&argv[1..]),
        Some("stats") => cmd_stats(&argv[1..]),
        Some("telemetry") => cmd_telemetry(&argv[1..]),
        Some("dump") => cmd_dump(&argv[1..]),
        Some("shutdown") => cmd_shutdown(&argv[1..]),
        Some("-h") | Some("--help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{USAGE}");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("riot-serve: unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--addr`/`--socket` pair shared by every subcommand.
struct Target {
    addr: Option<String>,
    socket: Option<PathBuf>,
}

impl Target {
    fn bind_or_default(&self) -> Bind {
        match (&self.socket, &self.addr) {
            (Some(p), _) => Bind::Unix(p.clone()),
            (None, Some(a)) => Bind::Tcp(a.clone()),
            (None, None) => Bind::Tcp("127.0.0.1:7117".to_owned()),
        }
    }

    fn connect(&self) -> Result<Client, String> {
        match (&self.socket, &self.addr) {
            (Some(p), _) => {
                Client::connect_unix(p).map_err(|e| format!("connect {}: {e}", p.display()))
            }
            (None, Some(a)) => Client::connect_tcp(a).map_err(|e| format!("connect {a}: {e}")),
            (None, None) => Err("need --addr or --socket".to_owned()),
        }
    }
}

/// The default `--snapshot-every`, shared by `serve` and
/// `bench --spawn`.
const SNAPSHOT_EVERY: usize = 1000;

fn parse_snapshot_every(v: &str) -> usize {
    v.parse()
        .unwrap_or_else(|_| fail("`--snapshot-every` wants an integer"))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut target = Target {
        addr: None,
        socket: None,
    };
    let mut root = PathBuf::from("./riot-serve-data");
    let mut threads = 0usize;
    let mut telemetry_addr: Option<String> = None;
    let mut slow_ms = 100u64;
    let mut snapshot_every = SNAPSHOT_EVERY;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("`{name}` needs a value")))
        };
        match flag.as_str() {
            "--addr" => target.addr = Some(value("--addr")),
            "--socket" => target.socket = Some(PathBuf::from(value("--socket"))),
            "--root" => root = PathBuf::from(value("--root")),
            "--threads" => {
                threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("`--threads` wants an integer"));
            }
            "--telemetry-addr" => telemetry_addr = Some(value("--telemetry-addr")),
            "--slow-ms" => {
                slow_ms = value("--slow-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("`--slow-ms` wants an integer"));
            }
            "--snapshot-every" => snapshot_every = parse_snapshot_every(&value("--snapshot-every")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let mut cfg = ServeConfig::new(root);
    cfg.threads = threads;
    cfg.telemetry_addr = telemetry_addr;
    cfg.slow_threshold = Duration::from_millis(slow_ms);
    cfg.snapshot_every = snapshot_every;
    let bind = target.bind_or_default();
    let handle = match Server::start(cfg, &bind) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("riot-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("riot-serve: listening on {}", handle.addr());
    if let Some(t) = handle.telemetry_addr() {
        eprintln!("riot-serve: telemetry on http://{t}/metrics");
    }
    handle.wait();
    eprintln!("riot-serve: drained");
    riot_trace::dump_from_env();
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    let mut target = Target {
        addr: None,
        socket: None,
    };
    let mut bench = BenchConfig::default();
    let mut spawn = false;
    let mut suite = false;
    let mut conn_scales: Vec<usize> = vec![64, 256, 1024];
    let mut out: Option<PathBuf> = None;
    let mut snapshot_every = SNAPSHOT_EVERY;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("`{name}` needs a value")))
        };
        match flag.as_str() {
            "--addr" => target.addr = Some(value("--addr")),
            "--socket" => target.socket = Some(PathBuf::from(value("--socket"))),
            "--spawn" => spawn = true,
            "--suite" => suite = true,
            "--sessions" => {
                bench.sessions = value("--sessions")
                    .parse()
                    .unwrap_or_else(|_| fail("`--sessions` wants an integer"));
            }
            "--commands" => {
                bench.commands = value("--commands")
                    .parse()
                    .unwrap_or_else(|_| fail("`--commands` wants an integer"));
            }
            "--window" => {
                bench.window = value("--window")
                    .parse()
                    .unwrap_or_else(|_| fail("`--window` wants an integer"));
            }
            "--conn-scale" => {
                conn_scales = value("--conn-scale")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| fail("`--conn-scale` wants N,N,..."))
                    })
                    .collect();
                if conn_scales.is_empty() {
                    fail("`--conn-scale` wants at least one count");
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--snapshot-every" => snapshot_every = parse_snapshot_every(&value("--snapshot-every")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    // The suite spawns its own servers and runs the recovery curve;
    // --addr/--socket would go unused.
    if suite {
        if target.addr.is_some() || target.socket.is_some() {
            eprintln!("riot-serve: --suite spawns its own servers; drop --addr/--socket");
            return ExitCode::from(2);
        }
        let result = run_suite(&bench, snapshot_every, &[500, 2000, 8000], 64, &conn_scales);
        return match result {
            Ok(s) => emit_json(&s.to_json(), out.as_deref()),
            Err(e) => {
                eprintln!("riot-serve: bench suite failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Either drive a live server, or spawn a private one.
    let (addr, spawned): (BoundAddr, Option<(Server2, PathBuf)>) = if spawn {
        let dir = std::env::temp_dir().join(format!("riot-serve-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("riot-serve: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let bind = Bind::Unix(dir.join("bench.sock"));
        let mut cfg = ServeConfig::new(dir.join("wal"));
        cfg.snapshot_every = snapshot_every;
        match Server::start(cfg, &bind) {
            Ok(h) => {
                let addr = h.addr();
                (addr, Some((h, dir)))
            }
            Err(e) => {
                eprintln!("riot-serve: cannot spawn bench server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match (&target.socket, &target.addr) {
            (Some(p), _) => (BoundAddr::Unix(p.clone()), None),
            (None, Some(a)) => match a.parse() {
                Ok(sa) => (BoundAddr::Tcp(sa), None),
                Err(_) => {
                    eprintln!("riot-serve: `--addr` wants HOST:PORT");
                    return ExitCode::from(2);
                }
            },
            (None, None) => {
                eprintln!("riot-serve: bench needs --addr, --socket or --spawn");
                return ExitCode::from(2);
            }
        }
    };

    let result = run_bench(&addr, &bench);
    if let Some((handle, dir)) = spawned {
        handle.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
    match result {
        Ok(report) => emit_json(&report.to_json(), out.as_deref()),
        Err(e) => {
            eprintln!("riot-serve: bench failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints `json` and optionally writes it to `out`.
fn emit_json(json: &str, out: Option<&std::path::Path>) -> ExitCode {
    print!("{json}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("riot-serve: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("riot-serve: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Alias so the spawned-server tuple above reads sanely.
type Server2 = riot_serve::ServerHandle;

fn cmd_stats(args: &[String]) -> ExitCode {
    let mut target = Target {
        addr: None,
        socket: None,
    };
    let mut session: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("`{name}` needs a value")))
        };
        match flag.as_str() {
            "--addr" => target.addr = Some(value("--addr")),
            "--socket" => target.socket = Some(PathBuf::from(value("--socket"))),
            "--session" => session = Some(value("--session")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let result = target.connect().and_then(|mut c| match &session {
        Some(s) => c.stats_session(s),
        None => c.stats(),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("riot-serve: stats failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_telemetry(args: &[String]) -> ExitCode {
    let mut target = Target {
        addr: None,
        socket: None,
    };
    let mut format = TelemetryFormat::Prometheus;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("`{name}` needs a value")))
        };
        match flag.as_str() {
            "--addr" => target.addr = Some(value("--addr")),
            "--socket" => target.socket = Some(PathBuf::from(value("--socket"))),
            "--json" => format = TelemetryFormat::Json,
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    match target.connect().and_then(|mut c| c.telemetry(format)) {
        Ok(snapshot) => {
            println!("{snapshot}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("riot-serve: telemetry failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_dump(args: &[String]) -> ExitCode {
    let mut target = Target {
        addr: None,
        socket: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("`{name}` needs a value")))
        };
        match flag.as_str() {
            "--addr" => target.addr = Some(value("--addr")),
            "--socket" => target.socket = Some(PathBuf::from(value("--socket"))),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    match target.connect().and_then(|mut c| c.dump()) {
        Ok(path) => {
            println!("{path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("riot-serve: dump failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_shutdown(args: &[String]) -> ExitCode {
    let mut target = Target {
        addr: None,
        socket: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("`{name}` needs a value")))
        };
        match flag.as_str() {
            "--addr" => target.addr = Some(value("--addr")),
            "--socket" => target.socket = Some(PathBuf::from(value("--socket"))),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    match target.connect().and_then(|mut c| c.shutdown_server()) {
        Ok(d) => {
            eprintln!("riot-serve: server says `{d}`");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("riot-serve: shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("riot-serve: {msg}\n\n{USAGE}");
    std::process::exit(2)
}
