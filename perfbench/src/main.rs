//! `perfbench run --workload W --seed N --seconds S --trace 0|1 ...` runs
//! one benchmark invocation and prints its result as the last line;
//! `perfbench seed --seed N --dir D` writes the seeded cache log (the run
//! starts it as a child process).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{self, Args};
use perfbench::gen::Kind;
use perfbench::report::result_line;
use perfbench::service::write_seeded_log;

const USAGE: &str = "usage: perfbench run --workload <search-cold|table-cold|miss-small|cache-hot> \
--seed <n> --seconds <s> --trace <0|1> [--work <dir>] [--results <dir>] [--commit <id>] [--rustc <version>]\n       \
perfbench seed --seed <n> --dir <dir>";

/// Parses `--key value` pairs.
fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        flags.insert(name, value.as_str());
    }
    Ok(flags)
}

fn required<'a>(flags: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .copied()
        .ok_or_else(|| format!("missing --{name}"))
}

fn parse<T: std::str::FromStr>(flags: &HashMap<&str, &str>, name: &str) -> Result<T, String> {
    let text = required(flags, name)?;
    text.parse()
        .map_err(|_| format!("--{name}: cannot parse `{text}`"))
}

fn run_args(flags: &HashMap<&str, &str>) -> Result<Args, String> {
    let workload = required(flags, "workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = parse(flags, "seed")?;
    let seconds: f64 = parse(flags, "seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match required(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let results = PathBuf::from(flags.get("results").copied().unwrap_or("perfbench/results"));
    let work_root = PathBuf::from(flags.get("work").copied().unwrap_or("perfbench/work"));
    let work = work_root.join(format!(
        "{}-seed{seed}-trace{}-{}",
        kind.name(),
        u8::from(trace),
        std::process::id()
    ));
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        commit: flags
            .get("commit")
            .copied()
            .unwrap_or("unknown")
            .to_string(),
        rustc: flags.get("rustc").copied().unwrap_or("unknown").to_string(),
        work,
        results,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match flags(rest) {
        Ok(flags) => flags,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "seed" => {
            let outcome = parse::<u64>(&flags, "seed").and_then(|seed| {
                let dir = required(&flags, "dir")?;
                write_seeded_log(seed, dir.as_ref()).map_err(|e| e.to_string())
            });
            match outcome {
                Ok(()) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("perfbench seed: {why}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let args = match run_args(&flags) {
                Ok(args) => args,
                Err(why) => {
                    eprintln!("perfbench: {why}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            if let Err(e) = std::fs::create_dir_all(&args.results) {
                eprintln!("perfbench: cannot create {}: {e}", args.results.display());
                return ExitCode::FAILURE;
            }
            match bench::run(&args) {
                Ok(out) => {
                    println!(
                        "{}",
                        result_line(
                            out.correct,
                            out.tally.attempted,
                            out.tally.failed,
                            &out.metrics
                        )
                    );
                    if out.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: run failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
