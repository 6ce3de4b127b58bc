//! Concurrent composition-server table: N `knitc serve` clients
//! edit→rebuild the ~98-unit deep-lock kernel over a real local socket.
//!
//! ```text
//! cargo run --release -p bench --bin table_serve [-- --clients N]
//!     [--edits N] [--smoke] [--json <path>]
//! ```
//!
//! Reports edit-phase rebuild throughput (all clients together) and p50/p99
//! rebuild round-trip latency as the median and spread of repeated
//! samples, the cross-client compile-dedupe rate of the followers' cold
//! builds against the shared cache, and the sessions' per-edit work.
//! Exits nonzero if any gate fails: wire images must be byte-identical to
//! a direct in-process build, with ≥2 clients the dedupe rate must be
//! positive, and every edit must do exactly one compile, one link table,
//! one objcopy fingerprint per re-renamed instance and one link that
//! reuses the previous symbol resolution. `--smoke` is the small CI
//! configuration.

use std::process::ExitCode;

use bench::serve::{table_serve, ServeOptions};

struct Args {
    opts: ServeOptions,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut opts = ServeOptions::default();
    let mut json = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json needs a path")),
            other if other.starts_with("--json=") => {
                json = Some(other["--json=".len()..].to_string());
            }
            "--clients" => {
                opts.clients = args
                    .next()
                    .expect("--clients needs a count")
                    .parse()
                    .expect("--clients takes a number");
            }
            "--edits" => {
                opts.edits = args
                    .next()
                    .expect("--edits needs a count")
                    .parse()
                    .expect("--edits takes a number");
            }
            "--smoke" => opts = ServeOptions::smoke(),
            other => {
                panic!(
                    "unknown argument `{other}` (expected --clients N, --edits N, --smoke, --json <path>)"
                )
            }
        }
    }
    Args { opts, json }
}

fn main() -> ExitCode {
    let args = parse_args();
    println!("table_serve: concurrent clients against one composition server");
    println!(
        "  ({} clients x {} edit/rebuild rounds, deep-lock kernel)\n",
        args.opts.clients, args.opts.edits
    );

    let report = table_serve(&args.opts);

    let (tmin, tmax) = report.throughput_builds_per_sec.spread();
    println!(
        "  {:>7} | {:>5} | {:>21} | {:>9} {:>9} | {:>9} | gates",
        "clients", "units", "rebuilds/s (min-max)", "p50 us", "p99 us", "dedupe"
    );
    println!(
        "  {:>7} | {:>5} | {:>8.1} ({:>5.0}-{:<5.0}) | {:>9.0} {:>9.0} | {:>8.0}% | {}",
        report.options.clients,
        report.units,
        report.throughput_builds_per_sec.median(),
        tmin,
        tmax,
        report.p50_rebuild_us.median(),
        report.p99_rebuild_us.median(),
        report.dedupe_rate * 100.0,
        if report.byte_identical { "byte-identical" } else { "IMAGE DIVERGED" },
    );
    let w = &report.work;
    println!(
        "\n  per-edit work ({} edits, medians of {} samples above): {} compiles, {} link tables, \
         {} objcopy fingerprints for {} re-renamed instances, {} links ({} resolutions reused)",
        w.edits,
        report.options.samples,
        w.unit_compiles,
        w.unit_links,
        w.objcopy_fingerprints,
        w.objcopy,
        w.links,
        w.resolution_reuses,
    );

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.json()) {
            eprintln!("table_serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n  wrote {path}");
    }

    let failures = report.failures();
    if !failures.is_empty() {
        eprintln!("table_serve: SERVER GATE FAILURE: {failures:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
