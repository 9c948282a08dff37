//! The one `bench` binary: regenerates (or checks) every drift-gated
//! artifact, table and figure of the reproduction.
//!
//! ```sh
//! cargo run --release -p bench -- throughput          # regenerate BENCH_throughput.json
//! cargo run --release -p bench -- geo --check         # CI drift gate (exit 1 on drift)
//! cargo run --release -p bench -- latency --smoke     # small grid
//! cargo run --release -p bench -- recovery --out x.json
//! cargo run --release -p bench -- tables --exp f11    # one experiment, as markdown
//! cargo run --release -p bench -- tables --json results.json
//! cargo run --release -p bench -- tables --check      # results.json drift gate
//! cargo run --release -p bench -- tables --exp f28 --check
//! cargo run --release -p bench -- figures             # write docs/
//! ```
//!
//! Every artifact is a pure function of its seeds, so `--check` re-runs it
//! and byte-compares with the checked-in file: drift means the simulation
//! changed and the file must be regenerated in the same PR. Exit codes:
//! 1 for drift or a failed gate, 2 for a command line that makes no sense.

use std::path::Path;

use bench::artifact::{
    compare, parse_args, read_checked_in, render, run_artifact, usage, write, Failure,
};
use bench::figures::{all_pages, index_page, observability_page};
use bench::{all_experiments, geo, latency, recovery, throughput};
use serde_json::{json, Value};

const USAGE: &str = "usage: bench <throughput|latency|recovery|geo|tables|figures> [flags]";
const RESULTS_PATH: &str = "results.json";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "throughput" => run_artifact::<throughput::Throughput>(rest),
            "latency" => run_artifact::<latency::Latency>(rest),
            "recovery" => run_artifact::<recovery::Recovery>(rest),
            "geo" => run_artifact::<geo::Geo>(rest),
            "tables" => tables(rest),
            "figures" => figures(rest),
            other => Err(Failure::Usage(format!(
                "unknown subcommand: {other}\n{USAGE}"
            ))),
        },
        None => Err(Failure::Usage(USAGE.to_string())),
    };
    match outcome {
        Ok(()) => {}
        Err(Failure::Usage(message)) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
        Err(Failure::Failed(problems)) => {
            for p in &problems {
                eprintln!("problem: {p}");
            }
            std::process::exit(1);
        }
    }
}

/// `bench tables`: runs the experiments (all, or `--exp <id>`), prints the
/// markdown drawn from each record, and writes (`--json <path>`) or checks
/// (`--check`) the records. Wall-clock goes to stderr only, so the file is
/// a pure function of the code.
fn tables(argv: &[String]) -> Result<(), Failure> {
    let flags = ["--exp <id>", "--json <path>", "--check", "--list"];
    let args = parse_args("tables", argv, &flags)?;
    if args.list {
        for (id, _, _) in all_experiments() {
            println!("{id}");
        }
        return Ok(());
    }
    // One experiment's records are a slice of the file: writing them would
    // drop every other experiment's.
    if args.exp.is_some() && args.out.is_some() && !args.check {
        let problem = "--exp with --json only checks that experiment's slice: add --check";
        return Err(usage("tables", &flags, problem));
    }
    let mut records = Vec::new();
    for (id, title, run) in all_experiments() {
        if args.exp.as_deref().is_some_and(|want| want != id) {
            continue;
        }
        let started = std::time::Instant::now();
        let report = run();
        let text = report.text(id, title);
        println!("{}", text.map_err(|e| Failure::Failed(vec![e]))?);
        eprintln!("    ({id} in {:.2}s)", started.elapsed().as_secs_f64());
        records.push(report.entry(id, title));
    }
    if records.is_empty() {
        return Err(Failure::Failed(vec![
            "no experiment matched; try --list".into()
        ]));
    }
    let rendered = render(&json!({ "experiments": records }));
    let path = args.out.as_deref().unwrap_or(RESULTS_PATH);
    if !args.check {
        return match &args.out {
            Some(path) => write(path, &rendered),
            None => Ok(()),
        };
    }
    // `--exp <id> --check` compares against that experiment's slice of the
    // checked-in file; the serializer is canonical, so re-rendering the
    // slice and comparing bytes is exact.
    let mut expected = read_checked_in(path)?;
    if let Some(id) = &args.exp {
        let doc = serde_json::from_str(&expected)
            .map_err(|_| Failure::Failed(vec![format!("{path} is not valid JSON")]))?;
        let all = doc.get("experiments").and_then(Value::as_array);
        let slice: Vec<Value> = all
            .into_iter()
            .flatten()
            .filter(|e| e.get("id").and_then(Value::as_str) == Some(id))
            .cloned()
            .collect();
        expected = render(&json!({ "experiments": slice }));
    }
    compare(path, &expected, &rendered, &format!("tables --json {path}"))
}

/// `bench figures`: regenerates the documentation tree (default `docs/`).
/// Output is deterministic — fixed seeds, no timestamps — which is what
/// the CI docs-drift check relies on.
fn figures(argv: &[String]) -> Result<(), Failure> {
    let args = parse_args("figures", argv, &["--out <dir>", "--list"])?;
    let pages = all_pages();
    if args.list {
        for p in &pages {
            println!("{}", p.slug);
        }
        return Ok(());
    }
    let root = Path::new(args.out.as_deref().unwrap_or("docs"));
    std::fs::create_dir_all(root.join("protocols"))
        .map_err(|e| Failure::Failed(vec![format!("create {}: {e}", root.display())]))?;
    let put = |file: String, body: &str| write(&root.join(file).to_string_lossy(), body);
    for p in &pages {
        put(format!("protocols/{}.md", p.slug), &p.body)?;
    }
    put("README.md".into(), &index_page(&pages))?;
    put("observability.md".into(), &observability_page())?;
    println!("{} pages", pages.len());
    Ok(())
}
