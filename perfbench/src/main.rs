//! `perfbench`: the repository's benchmark. One invocation runs one
//! workload and prints, as the last line of its standard output, every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) as one JSON object. See `README.md` beside this
//! package for the metric glossary and `BENCHMARK.json` at the
//! repository root for the contract.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --spread <N> --workload <name> [--seed <base>] [--seconds <s>]
//! perfbench --capacity [--seed <n>] [--seconds <s>]
//! ```

mod inputs;
mod json;
mod oracle;
mod probes;
mod proc;
mod run;
mod span;
mod spec;
mod stats;

use inputs::{Scale, Workload};
use std::process::ExitCode;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spread: Option<usize>,
    capacity: bool,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --spread <N> --workload <name> [--seed <base>] [--seconds <s>]\n       \
         perfbench --capacity [--seed <n>] [--seconds <s>]\nworkloads:",
    );
    for w in &inputs::WORKLOADS {
        text.push_str(&format!("\n  {:<16} {}", w.name, w.why));
    }
    text
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        spread: None,
        capacity: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--capacity" {
            out.capacity = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    inputs::workload(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => out.seed = number()?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds takes a positive number, got {value:?}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--spread" => out.spread = Some(number()?.max(2) as usize),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(out)
}

/// Runs one workload once and returns its result line.
fn run_once(
    w: &'static Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<String, String> {
    let run = run::Run::prepare(w, scale, seed).map_err(|e| e.to_string())?;
    if trace {
        let (tally, rows) = probes::per_layer(&run, seconds)?;
        Ok(spec::result_line(
            spec::PER_LAYER,
            &rows,
            !tally.wrong,
            tally.attempted.max(1),
            tally.failed,
        ))
    } else {
        let e2e = run::end_to_end(&run, seconds)?;
        Ok(spec::result_line(
            spec::END_TO_END,
            &e2e.metrics,
            !e2e.tally.wrong,
            e2e.tally.attempted,
            e2e.tally.failed,
        ))
    }
}

/// Re-runs this executable for one seed, as the driver would, and
/// returns its end-to-end values in table order.
fn child_run(w: &Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || line.is_empty() {
        return Err(format!("run with seed {seed} failed: {}", out.status));
    }
    let v = json::parse(line)?;
    if v.get("correct") != Some(&json::Value::Bool(true))
        || v.get("failed").and_then(json::Value::as_f64) != Some(0.0)
    {
        return Err(format!("run with seed {seed} was not clean: {line}"));
    }
    spec::END_TO_END
        .iter()
        .map(|(name, _)| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("seed {seed}: no {name} in {line}"))
        })
        .collect()
}

/// `(better, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(bool, f64)>, String> {
    let doc = spec::benchmark_json()?;
    let metrics = doc
        .get("end_to_end")
        .and_then(json::Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    spec::END_TO_END
        .iter()
        .map(|(name, _)| {
            let m = metrics
                .iter()
                .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))
                .ok_or_else(|| format!("BENCHMARK.json does not declare {name}"))?;
            let lower = m.get("better").and_then(json::Value::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{name} has no bound"))?;
            Ok((lower, bound))
        })
        .collect()
}

/// Independent sets of seeds a `--spread` runs, as the driver does.
const SETS: usize = 2;

/// `--spread N`: runs [`SETS`] independent sets of N seeds of one
/// workload and prints, per end-to-end metric and set, median, quartiles
/// and IQR / median against the metric's bound, and how far the second
/// set's median moved from the first's.
fn spread(w: &Workload, base: u64, n: usize, seconds: f64) -> Result<(), String> {
    let bounds = declared_bounds()?;
    println!(
        "### `{}`: {SETS} sets of {n} seeds, {seconds} s each\n",
        w.name
    );
    println!(
        "| metric | set | seeds | median | q1 | q3 | IQR/median | bound | worse than set 1 by |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut first_medians: Vec<f64> = Vec::new();
    let mut ok = true;
    for set in 0..SETS {
        let seeds: Vec<u64> = (0..n as u64)
            .map(|i| base + 1000 * set as u64 + i)
            .collect();
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for &seed in &seeds {
            for (col, v) in columns.iter_mut().zip(child_run(w, seed, seconds)?) {
                col.push(v);
            }
        }
        for (i, ((name, unit), col)) in spec::END_TO_END.iter().zip(&columns).enumerate() {
            let [q1, q2, q3] = stats::quartiles(col);
            let spread = (q3 - q1) / q2;
            let (lower, bound) = bounds[i];
            let shift = match first_medians.get(i) {
                None => "".to_string(),
                Some(first) => {
                    let worse = if lower {
                        q2 / first - 1.0
                    } else {
                        1.0 - q2 / first
                    };
                    ok &= worse <= bound;
                    format!("{:+.2} %", 100.0 * worse)
                }
            };
            ok &= spread <= bound;
            println!(
                "| `{name}` | {} | {}..{} | {q2:.4} {unit} | {q1:.4} | {q3:.4} | {:.2} % | {:.0} % | {shift} |",
                set + 1,
                seeds[0],
                seeds[n - 1],
                100.0 * spread,
                100.0 * bound,
            );
            if set == 0 {
                first_medians.push(q2);
            }
        }
    }
    println!(
        "\n{}\n",
        if ok {
            "Every spread and every median shift is inside its bound."
        } else {
            "**Outside its bound:** see the rows above."
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.capacity {
        run::capacity(Scale::FULL, args.seed, args.seconds)
    } else {
        let Some(w) = args.workload else {
            eprintln!("perfbench: --workload is required\n{}", usage());
            return ExitCode::from(2);
        };
        match args.spread {
            Some(n) => spread(w, args.seed, n, args.seconds),
            None => run_once(w, Scale::FULL, args.seed, args.seconds, args.trace)
                .map(|line| println!("{line}")),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn printed(line: &str) -> Vec<String> {
        json::parse(line)
            .unwrap()
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Every workload, both traces, end to end at a scale of seconds:
    /// the printed names are exactly the declared ones, the answers
    /// match the oracle, nothing fails.
    #[test]
    fn every_workload_prints_exactly_the_declared_metrics() {
        for w in &inputs::WORKLOADS {
            for (trace, table) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
                let line = run_once(w, inputs::tests::TINY, 11, 0.3, trace)
                    .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name));
                let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                assert_eq!(printed(&line), names, "{} trace {trace}", w.name);
                let v = json::parse(&line).unwrap();
                assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{line}");
                assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0), "{line}");
                assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
                if !trace {
                    for (name, _) in table {
                        let value = v
                            .get("metrics")
                            .and_then(|m| m.get(name))
                            .and_then(|m| m.get("value"))
                            .and_then(Value::as_f64)
                            .unwrap();
                        assert!(value > 0.0, "{} {name} = {value}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn arguments() {
        let a = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let ok = a("--workload cold_cli --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(ok.workload.unwrap().name, "cold_cli");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.5, true));
        assert!(a("--workload nope").is_err());
        assert!(a("--trace 2").is_err());
        assert!(a("--seconds 0").is_err());
        assert!(a("--seed").is_err());
    }
}
