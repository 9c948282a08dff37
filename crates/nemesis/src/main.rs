//! `nemesis` — sweep seeds × protocols, print a verdict table, and persist
//! shrunk counterexamples for any violation found.
//!
//! ```text
//! nemesis [--seeds N] [--protocols a,b,c] [--replay FILE [--trace-out PATH]]
//! ```
//!
//! * `--seeds N` — seeds `0..N` per protocol (default 20).
//! * `--protocols` — comma-separated subset (default: the full registry).
//!   `paxos-buggy` (the injected quorum-overlap bug) is opt-in only.
//! * `--replay FILE` — re-run a stored counterexample instead of sweeping;
//!   exits 0 iff the stored violations reproduce exactly.
//! * `--trace-out PATH` — with `--replay`: re-run the counterexample's
//!   schedule with trace recording on and write the Chrome `trace_event`
//!   JSON timeline to `PATH` (causal spans for the store targets, instant
//!   events elsewhere). Load it in Perfetto or `chrome://tracing`.
//!
//! Exit status: 0 if every trial passed (or the replay reproduced), 1 if any
//! violation was found (counterexamples are written to the working
//! directory), 2 on usage errors.

use std::process::ExitCode;

use nemesis::{by_name, quiet_panics, replay, shrink, sweep, targets, Counterexample, Target};

struct Args {
    seeds: u64,
    protocols: Option<Vec<String>>,
    replay: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 20,
        protocols: None,
        replay: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
            }
            "--protocols" => {
                let v = it.next().ok_or("--protocols needs a value")?;
                args.protocols = Some(v.split(',').map(str::to_string).collect());
            }
            "--replay" => {
                args.replay = Some(it.next().ok_or("--replay needs a file")?);
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?);
            }
            "--help" | "-h" => return Err(
                "usage: nemesis [--seeds N] [--protocols a,b,c] [--replay FILE [--trace-out PATH]]"
                    .to_string(),
            ),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if args.trace_out.is_some() && args.replay.is_none() {
        return Err("--trace-out only makes sense with --replay".to_string());
    }
    Ok(args)
}

fn resolve_targets(names: &Option<Vec<String>>) -> Result<Vec<Box<dyn Target>>, String> {
    match names {
        None => Ok(targets()),
        Some(list) => list
            .iter()
            .map(|n| by_name(n).ok_or_else(|| format!("unknown protocol {n:?}")))
            .collect(),
    }
}

fn run_replay(path: &str, trace_out: Option<&str>) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cx = Counterexample::from_json(&text)?;
    let target =
        by_name(&cx.protocol).ok_or_else(|| format!("unknown protocol {:?}", cx.protocol))?;
    println!(
        "replaying {} seed {} ({} actions): {}",
        cx.protocol,
        cx.seed,
        cx.plan.actions.len(),
        cx.plan.summary()
    );
    let observed = quiet_panics(|| replay(target.as_ref(), &cx));
    for v in &observed {
        println!("  observed: {v}");
    }
    if let Some(out) = trace_out {
        // The traced re-run may hit the same panic `run_plan` converted
        // into a finding; a counterexample without a timeline is still a
        // counterexample, so degrade to a note instead of crashing.
        let traced = quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                target.trace_json(cx.seed, &cx.plan)
            }))
            .ok()
            .flatten()
        });
        match traced {
            Some(json) => {
                std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
                println!("causal trace written to {out}");
            }
            None => println!(
                "no trace available for {} (no hook, or the traced re-run panicked)",
                cx.protocol
            ),
        }
    }
    if observed == cx.violations {
        println!(
            "reproduced: {} violation(s), exactly as stored",
            observed.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "MISMATCH: stored {:?}, observed {observed:?}",
            cx.violations
        );
        Ok(ExitCode::FAILURE)
    }
}

fn run_sweep(args: &Args) -> Result<ExitCode, String> {
    let targets = resolve_targets(&args.protocols)?;
    println!(
        "nemesis: {} seeds × {} protocol(s)\n",
        args.seeds,
        targets.len()
    );
    println!("| protocol     | trials | ops  | violations | verdict |");
    println!("|--------------|--------|------|------------|---------|");
    let mut artifacts: Vec<String> = Vec::new();
    for target in &targets {
        let result = quiet_panics(|| sweep(target.as_ref(), 0..args.seeds));
        let verdict = if result.failures.is_empty() {
            "pass"
        } else {
            "FAIL"
        };
        println!(
            "| {:<12} | {:>6} | {:>4} | {:>10} | {:<7} |",
            result.protocol,
            result.trials,
            result.ops,
            result.failures.len(),
            verdict
        );
        for failure in &result.failures {
            let shrunk = quiet_panics(|| shrink(target.as_ref(), failure.seed, &failure.plan));
            let report = quiet_panics(|| nemesis::run_plan(target.as_ref(), failure.seed, &shrunk));
            let cx = Counterexample {
                protocol: result.protocol.clone(),
                seed: failure.seed,
                plan: shrunk,
                violations: report.violations.iter().map(|v| v.to_string()).collect(),
            };
            let file = format!("nemesis-{}-{}.json", result.protocol, failure.seed);
            std::fs::write(&file, cx.to_json()).map_err(|e| format!("cannot write {file}: {e}"))?;
            artifacts.push(file);
        }
    }
    if artifacts.is_empty() {
        println!("\nall trials passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\ncounterexamples written (replay with --replay FILE):");
        for a in &artifacts {
            println!("  {a}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.replay {
        Some(path) => run_replay(path, args.trace_out.as_deref()),
        None => run_sweep(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
