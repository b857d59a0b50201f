//! Command line of the benchmark.
//!
//! ```text
//! bdrmapit-bench [run] --workload W --seed S --seconds N --trace 0|1
//!                [--out RECORD.json] [--trace-out TRACE.json]
//! bdrmapit-bench compare BASE_DIR NEW_DIR
//! ```
//!
//! `run` prints every metric as `name value unit`, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits 1 when an output check failed and 2
//! when the run could not be made. `--out` also writes the result with the
//! run's identity, the record `compare` reads; `--trace-out` writes the
//! traced run's Chrome trace (`bdrmapit trace check` accepts it).

#![forbid(unsafe_code)]

use bdrmapit_bench::spec::Spec;
use bdrmapit_bench::{available_parallelism, compare, Sizes, Workload, THREADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let (mut out, mut trace_out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Spec::committed().run_seconds as f64),
        traced,
        out,
        trace_out,
    })
}

fn run_main(args: &[String]) -> ExitCode {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bdrmapit-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = available_parallelism();
    if cores < THREADS {
        eprintln!(
            "bdrmapit-bench: {cores} core(s) available; the benchmark pins {THREADS} threads \
             and refuses to measure an oversubscribed machine"
        );
        return ExitCode::from(2);
    }
    println!(
        "# workload {} seed {} seconds {} traced {} threads {THREADS} available_parallelism {cores}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.traced
    );
    let outcome = match bdrmapit_bench::run(
        a.workload,
        a.seed,
        a.seconds,
        a.traced,
        &Sizes::reference(a.workload),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bdrmapit-bench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("bdrmapit-bench: check failed: {p}");
    }
    let writes = [
        (a.out.as_deref(), Some(outcome.record_json())),
        (a.trace_out.as_deref(), outcome.trace_json.clone()),
    ];
    for (path, text) in writes {
        if let (Some(path), Some(text)) = (path, text) {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("bdrmapit-bench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let [base, new] = args else {
        eprintln!("usage: bdrmapit-bench compare BASE_DIR NEW_DIR");
        return ExitCode::from(2);
    };
    let load = |d: &String| compare::load_dir(Path::new(d));
    let (base, new) = match (load(base), load(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bdrmapit-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare::compare(&base, &new, &Spec::committed());
    print!("{}", compare::render(&rows));
    if compare::any_regression(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        _ => run_main(&args),
    }
}
