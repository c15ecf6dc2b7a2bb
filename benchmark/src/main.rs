//! The repo benchmark. `BENCHMARK.json` at the repo root names the command
//! that runs it; `README.md` beside this crate says why each workload and
//! metric exists.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--knobs a,b]
//!     one run of one workload; the last line of stdout is the result
//! benchmark all [--seed N] [--seconds S] [--knobs a,b]
//!     every workload, untraced then traced, as one JSON document
//! benchmark aa [--seed N] [--seconds S] [--runs K]
//!     two sets of K runs of the same code, compared against the bounds
//! ```

mod affinity;
mod json;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use run::RunConfig;
use stats::{median, quartiles};
use workload::{Knobs, Sizes, Workload};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    knobs: Knobs,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        knobs: Knobs::default(),
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{arg}: {what}");
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?.to_string()),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("is 0 or 1")),
                }
            }
            "--knobs" => args.knobs = Knobs::parse(value()?)?,
            "--runs" => {
                args.runs = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if args.runs == 0 {
                    return Err(bad("is at least 1"));
                }
            }
            "all" | "aa" if args.command.is_none() => args.command = Some(arg.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => one_run(&args, name),
        (Some("all"), None) => all(&args),
        (Some("aa"), None) => aa(&args),
        _ => Err("give either --workload W, or `all`, or `aa`".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The contract's command: one run of one workload. Prints the run's
/// detail and then, as the last line, its result.
fn one_run(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let result = run::run(&RunConfig {
        workload,
        sizes: Sizes::CONTRACT,
        knobs: args.knobs.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    })?;
    println!("{}", result.detail);
    println!("{}", result.line());
    Ok(ExitCode::from(result.exit_code()))
}

/// Start this program again for one run and read back what it printed:
/// `(detail, result line, exit code 0)`. A fresh process per run is what
/// the contract's driver does, and keeps one workload's memory out of the
/// next one's peak RSS.
fn child_run(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<(Json, Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if !args.knobs.is_empty() {
        command.args(["--knobs", &args.knobs.names().join(",")]);
    }
    let output = command
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let line = lines.next().ok_or("a run printed nothing")?;
    let detail = lines.next().ok_or("a run printed no detail")?;
    Ok((
        Json::parse(detail)?,
        Json::parse(line)?,
        output.status.success(),
    ))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were made.
fn environment(args: &Args) -> Json {
    let sizes = Sizes::CONTRACT;
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "knobs",
            Json::Arr(args.knobs.names().iter().map(Json::str).collect()),
        ),
        ("clients", Json::Num(1.0)),
        ("loop", Json::str("closed")),
        ("reps", Json::Num(run::REPS as f64)),
        ("setups", Json::Num(run::SETUPS as f64)),
        ("sky_objects", Json::Num(sizes.sky_objects as f64)),
        ("sky_log", Json::Num(sizes.sky_log as f64)),
        ("tpch_sf", Json::Num(sizes.tpch_sf)),
        ("tpch_rounds", Json::Num(sizes.tpch_rounds as f64)),
        ("tpch_round_queries", Json::Num(workload::TPCH_ROUND as f64)),
        ("tpch_pool_bytes", Json::Num(sizes.tpch_pool_bytes as f64)),
        ("refresh_orders", Json::Num(workload::REFRESH_ORDERS as f64)),
        ("pipe_window", Json::Num(workload::PIPE_WINDOW as f64)),
        ("check_every", Json::Num(workload::CHECK_EVERY as f64)),
    ])
}

/// Every workload, untraced then traced, as one JSON document on stdout
/// and in `out/latest.json`.
fn all(args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let wall = Instant::now();
        let (detail, end_to_end, ok_untraced) = child_run(args, workload, args.seed, false)?;
        let (traced_detail, per_layer, ok_traced) = child_run(args, workload, args.seed, true)?;
        ok &= ok_untraced && ok_traced;
        let wall_s = wall.elapsed().as_secs_f64();
        eprintln!("# {}: {wall_s:.1} s wall", workload.name());
        workloads.push(Json::obj([
            ("name", Json::str(workload.name())),
            ("wall_s", Json::Num(wall_s)),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
            ("detail", detail),
            ("traced_detail", traced_detail),
        ]));
    }
    let total = started.elapsed().as_secs_f64();
    eprintln!("# total: {total:.1} s wall");
    let document = Json::obj([
        ("schema", Json::str("recycler-benchmark/v1")),
        // runs with knobs set are for ablation, never the contract's
        ("contract", Json::Bool(args.knobs.is_empty())),
        ("environment", environment(args)),
        ("workloads", Json::Arr(workloads)),
        ("total_wall_s", Json::Num(total)),
        ("claim", Json::Null),
    ]);
    let dir = workload::out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("latest.json"), format!("{document}\n")))
        .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    println!("{document}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Direction and regression bound of each end-to-end metric, read from
/// the repo's `BENCHMARK.json` — the one place they are fixed.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = workload::manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = Json::parse(&text)?.get("end_to_end").cloned() else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_string()),
            };
            let higher = m.get("better") == Some(&Json::str("higher"));
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("no bound")?;
            Ok((name, higher, bound))
        })
        .collect()
}

/// The A/A check: two sets of `--runs` runs of the same code, each run on
/// its own seed, as the contract's driver makes them. For every pairing
/// of end-to-end metric and workload it prints both medians, set A's
/// spread (distance between its quartiles over its median), how much
/// worse B's median is than A's, and PASS or FAIL against the bound.
fn aa(args: &Args) -> Result<ExitCode, String> {
    let bounds = bounds()?;
    let mut failures = 0;
    println!(
        "{:<13} {:<15} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread", "B worse", "bound"
    );
    for workload in Workload::ALL {
        // per set, per metric (in `bounds` order), one value per run
        let mut sets = [(); 2].map(|()| vec![Vec::new(); bounds.len()]);
        for set in &mut sets {
            for i in 0..args.runs {
                let (_, line, ok) = child_run(args, workload, args.seed + i as u64, false)?;
                if !ok {
                    return Err(format!("a run of {} failed: {line}", workload.name()));
                }
                for (values, (name, _, _)) in set.iter_mut().zip(&bounds) {
                    let value = line
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("a run reported no {name}"))?;
                    values.push(value);
                }
            }
        }
        for (i, (name, higher, bound)) in bounds.iter().enumerate() {
            let (a, b) = (median(&sets[0][i]), median(&sets[1][i]));
            let spread = quartiles(&sets[0][i]).map_or(0.0, |(q1, q3)| (q3 - q1) / a);
            let worse = if *higher { (a - b) / a } else { (b - a) / a };
            // the set-up spread is reported but, as in the contract, not judged
            let pass = worse <= *bound && (name == "setup_s" || spread <= *bound);
            failures += u32::from(!pass);
            println!(
                "{:<13} {:<15} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload.name(),
                name,
                a,
                b,
                100.0 * spread,
                100.0 * worse,
                100.0 * bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
