//! `forty-benchmark`: the wall-clock + simulated-time benchmark for forty.
//!
//! ```text
//! forty-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! forty-benchmark run --seed <n>            # every workload, one child process each
//! forty-benchmark selfcheck [--seed <n>]    # simulated numbers repeat bit-for-bit
//! forty-benchmark compare <a/> <b/>         # verdict per (workload, metric)
//! forty-benchmark ab-self                   # the benchmark against itself
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod calibrate;
mod compare;
mod probes;
mod run;
mod spec;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use run::{Outcome, RunArgs};
use spec::{Kind, WORKLOADS};

const DEFAULT_OUT: &str = "benchmark/out";
const DEFAULT_SPEC: &str = "BENCHMARK.json";

/// `--flag value` pairs after the subcommand, plus positional arguments.
struct Cli {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    cli.flags.push((name.to_string(), value.clone()));
                }
                None => cli.positional.push(a.clone()),
            }
        }
        Ok(cli)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn run_args(cli: &Cli, workload: &str) -> Result<RunArgs, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = cli.num("seconds", 20.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(RunArgs {
        workload: workload.to_string(),
        seed: cli.num("seed", 1)?,
        seconds,
        iters: cli
            .get("iters")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--iters: cannot parse {v:?}"))
            })
            .transpose()?,
        trace: match cli.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    })
}

/// Where a run's result file goes: `<out>/<workload>[.<tag>][.trace].json`.
fn result_path(cli: &Cli, args: &RunArgs) -> PathBuf {
    let mut name = args.workload.clone();
    if let Some(tag) = cli.get("tag") {
        name = format!("{name}.{tag}");
    }
    if args.trace {
        name.push_str(".layers");
    }
    Path::new(cli.get("out").unwrap_or(DEFAULT_OUT)).join(format!("{name}.json"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. The result line is the last line printed;
/// it carries `correct`, so a run that printed it exits 0 either way.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = run_args(cli, workload)?;
    let out = run::run(&args);
    run::print_table(&args, &out);
    let path = result_path(cli, &args);
    write(&path, &run::result_file(&args, &out))?;
    if args.trace {
        let trace = path.with_file_name(format!("trace-{}.json", args.workload));
        let doc = out.tracer.chrome_trace(run::SIM_WINDOW_TRACED as u64);
        write(&trace, &serde_json::to_string(&doc).expect("serializable"))?;
    }
    println!("{}", run::result_line(&args, &out));
    Ok(true)
}

/// Re-invokes this executable with `args`, inheriting stdout and stderr.
fn child(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(args)
        .status()
        .map_err(|e| format!("spawn: {e}"))?;
    Ok(status.success())
}

/// Every workload, each in a child process so `peak_rss_mib` is its own.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        let mut args = vec!["run".to_string(), "--workload".to_string(), w.to_string()];
        args.extend_from_slice(raw);
        ok &= child(&args)?;
    }
    Ok(ok)
}

/// Same seed twice: every simulated-time metric, every count-kind layer
/// metric and the fingerprint must repeat bit-for-bit; another seed must not.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let seed: u64 = cli.num("seed", 1)?;
    let iters = Some(cli.num("iters", 3usize)?);
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let go = |seed| {
                run::run(&RunArgs {
                    workload: w.to_string(),
                    seed,
                    seconds: 1.0,
                    iters,
                    trace,
                })
            };
            let (a, b, c) = (go(seed), go(seed), go(seed + 1));
            let exact: Vec<&str> = spec::emitted(trace)
                .iter()
                .filter(|d| d.kind == Kind::Count)
                .map(|d| d.name)
                .collect();
            let differs = |x: &Outcome, y: &Outcome| -> Vec<&str> {
                exact
                    .iter()
                    .copied()
                    .filter(|n| x.metrics[n].to_bits() != y.metrics[n].to_bits())
                    .collect()
            };
            let repeat = differs(&a, &b);
            let same_fp = a.sim_fingerprint == b.sim_fingerprint;
            let other = !differs(&a, &c).is_empty() && a.sim_fingerprint != c.sim_fingerprint;
            let clean = a.failed + b.failed + c.failed == 0;
            let pass = repeat.is_empty() && same_fp && other && clean;
            println!(
                "selfcheck {w:<18} trace={} exact-metrics={} fingerprint={:016x} repeat={} other-seed-differs={} failed-ops={}  {}",
                u8::from(trace),
                exact.len(),
                a.sim_fingerprint,
                if repeat.is_empty() && same_fp { "identical".to_string() } else { format!("DIFFERS {repeat:?}") },
                other,
                a.failed + b.failed + c.failed,
                if pass { "ok" } else { "FAILED" }
            );
            ok &= pass;
        }
    }
    Ok(ok)
}

fn spec_seconds(spec: &Path) -> Option<f64> {
    let doc = serde_json::from_str(&std::fs::read_to_string(spec).ok()?).ok()?;
    doc.get("run_seconds")?.as_f64()
}

/// Runs the whole benchmark twice on the current tree, alternating which
/// side goes first, and compares the two result sets.
fn ab_self(cli: &Cli) -> Result<bool, String> {
    let spec = PathBuf::from(cli.get("spec").unwrap_or(DEFAULT_SPEC));
    let seconds: f64 = cli.num("seconds", spec_seconds(&spec).unwrap_or(20.0))?;
    let runs: u64 = cli.num("runs", 5)?;
    let seed: u64 = cli.num("seed", 1)?;
    let out = Path::new(cli.get("out").unwrap_or(DEFAULT_OUT)).join("ab-self");
    let mut ok = true;
    for r in 0..runs {
        let sides = if r % 2 == 0 { ["a", "b"] } else { ["b", "a"] };
        for side in sides {
            for w in WORKLOADS {
                let dir = out.join(side);
                let args = [
                    "run",
                    "--workload",
                    w,
                    "--seed",
                    &(seed + r).to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--out",
                    &dir.to_string_lossy(),
                    "--tag",
                    &format!("run{r}"),
                ]
                .map(String::from);
                eprintln!("ab-self: run {r} side {side} {w}");
                ok &= child(&args)?;
            }
        }
    }
    let regressed = compare::compare(&out.join("a"), &out.join("b"), &spec)?;
    println!("ab-self: {regressed} regressed");
    Ok(ok && regressed == 0)
}

fn main_inner() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = raw
        .split_first()
        .ok_or("usage: forty-benchmark run|selfcheck|compare|ab-self [...]")?;
    let cli = Cli::parse(rest)?;
    match cmd.as_str() {
        "run" => match cli.get("workload") {
            Some(w) => run_one(&cli, w),
            None => run_all(rest),
        },
        "selfcheck" => selfcheck(&cli),
        "compare" => {
            let [a, b] = cli.positional.as_slice() else {
                return Err(
                    "usage: forty-benchmark compare <a/> <b/> [--spec BENCHMARK.json]".to_string(),
                );
            };
            let spec = cli.get("spec").unwrap_or(DEFAULT_SPEC);
            Ok(compare::compare(Path::new(a), Path::new(b), Path::new(spec))? == 0)
        }
        "ab-self" => ab_self(&cli),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("forty-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
