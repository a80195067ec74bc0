//! Command-line entry of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune-r18 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints a table of metrics with units and sample counts, then, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Exits 0 once a
//! result is printed, 2 on bad arguments.

use std::path::PathBuf;

use alt_perfbench::{run, Config, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: alt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, 0, 10.0, false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    // Stores, journals and traces live under the working directory.
    let scratch =
        PathBuf::from(".perfbench-tmp").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        traced,
        smoke,
        scratch,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("error: cannot create {}: {e}", cfg.scratch.display());
        std::process::exit(2);
    }
    let report = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    if let Some(parent) = cfg.scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let header = format!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        alt_codegen::default_threads()
    );
    report.print(&header, cfg.traced);
}
