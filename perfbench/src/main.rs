//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload, print every metric by name, save the full record
//! (and, when traced, the Chrome trace) under `.bench_out/`, and print the
//! result line last. Exits nonzero when an oracle fails.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::trace::chrome_json;
use perfbench::{run, RunConfig, Size, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(RunConfig, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let cfg = RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace,
        size: Size::Full,
    };
    Ok((cfg, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, out_dir) = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    let name = cfg.workload.name();
    let stem = format!("{name}-seed{}-trace{}", cfg.seed, cfg.trace as u8);
    let saved = std::fs::create_dir_all(&out_dir).and_then(|_| {
        std::fs::write(out_dir.join(format!("{stem}.json")), outcome.full_json(name, cfg.trace))?;
        if cfg.trace {
            std::fs::write(
                out_dir.join(format!("{stem}.trace.json")),
                chrome_json(&outcome.spans),
            )?;
        }
        Ok(())
    });
    if let Err(e) = saved {
        eprintln!("perfbench: cannot write results under {}: {e}", out_dir.display());
    }
    print!("{}", outcome.human(name, cfg.trace));
    println!("{}", outcome.result_line(cfg.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
