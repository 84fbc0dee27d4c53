//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one `metric <name> <value> <unit>` line
//! per metric, informational lines, and last a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits 1 when
//! any answer was wrong, 2 on a usage or set-up error.

use std::fmt::Write as _;
use std::path::Path;

use espresso_perfbench::gen::Workload;
use espresso_perfbench::{host, run, Plan, Report};

/// Scratch directory for heaps and span files, relative to where the
/// benchmark is started (the checkout root).
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|read_scan|update_churn> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let base = Path::new(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(base) {
        eprintln!("perfbench: creating {RUN_DIR}: {e}");
        std::process::exit(2);
    }
    println!(
        "host nproc={} pinned={} fs={} profile={} commit={} seed={} workload={} seconds={} \
         trace={} cpu_loop_s={:.4}",
        nproc,
        if pinned { "cpu0" } else { "no" },
        host::filesystem(base),
        host::profile(),
        host::commit(Path::new(".")),
        args.seed,
        args.workload.name(),
        args.seconds,
        u8::from(args.trace),
        host::cpu_loop_seconds()
    );
    let plan = Plan::full(args.workload, args.seconds);
    let report = match run(args.workload, args.seed, plan, args.trace, base) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &report.notes {
        println!("note {note}");
    }
    for m in &report.metrics {
        println!("metric {} {:?} {}", m.name, m.value, m.unit);
    }
    if !report.correct {
        println!("WRONG ANSWERS: the run does not count");
    }
    println!("{}", json(&report));
    if !report.correct {
        std::process::exit(1);
    }
}
