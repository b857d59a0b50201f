//! The `detlint` binary: scan the workspace, print a report, exit nonzero
//! on any unannotated determinism hazard.
//!
//! ```text
//! cargo run -p detlint                       # human table, current workspace
//! cargo run -p detlint -- --format json      # machine-readable report
//! cargo run -p detlint -- --out report.json  # also write JSON to a file
//! cargo run -p detlint -- --root ../other    # scan a different tree
//! ```
//!
//! `--out` and `--format` are independent: the JSON report is written to
//! the file while the chosen format goes to stdout, so CI can upload the
//! machine-readable artifact and still print the human table in the log.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: detlint [--format human|json] [--root DIR] [--out FILE]";

struct Args {
    format: String,
    root: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        format: "human".to_string(),
        root: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if v != "human" && v != "json" {
                    return Err(format!("unknown format `{v}` (human|json)"));
                }
                args.format = v.clone();
            }
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("current dir");
            match detlint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace root found above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let report = detlint::analyze_workspace(&root);

    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("error: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    match args.format.as_str() {
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.to_table()),
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
