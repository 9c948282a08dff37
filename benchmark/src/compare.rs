//! `compare a/ b/`: one row per (workload, end-to-end metric) with both
//! medians, quartiles, the ratio with its base, and a verdict from the
//! bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

/// `workload -> metric -> values`, one value per result file.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// `workload -> seed -> sim_fingerprint`.
type Fingerprints = BTreeMap<String, BTreeMap<u64, String>>;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_bounds(spec: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    rows.iter()
        .map(|r| {
            Some(Bound {
                name: r.get("name")?.as_str()?.to_string(),
                higher_is_better: r.get("better")?.as_str()? == "higher",
                bound: r.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Reads every untraced result file (`<workload>*.json`) in `dir`.
fn load_set(dir: &Path) -> Result<(ResultSet, Fingerprints), String> {
    let mut set = ResultSet::new();
    let mut fingerprints = Fingerprints::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(doc) = serde_json::from_str(&text) else {
            continue;
        };
        let (Some(workload), Some(false), Some(metrics)) = (
            doc.get("workload").and_then(Value::as_str),
            doc.get("trace").and_then(Value::as_bool),
            doc.get("metrics").and_then(Value::as_object),
        ) else {
            continue; // a trace file or something else entirely
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
        if let (Some(seed), Some(fp)) = (
            doc.get("seed").and_then(Value::as_u64),
            doc.get("sim_fingerprint").and_then(Value::as_str),
        ) {
            fingerprints
                .entry(workload.to_string())
                .or_default()
                .insert(seed, fp.to_string());
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok((set, fingerprints))
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (the method the acceptance rule names); all three collapse to the
/// single value when there is only one.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Prints the comparison; returns how many rows regressed.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<usize, String> {
    let bounds = load_bounds(spec)?;
    let (set_a, fp_a) = load_set(a)?;
    let (set_b, fp_b) = load_set(b)?;
    println!(
        "{:<18} {:<22} {:>3} {:>14} {:>22} {:>14} {:>22} {:>16} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "median a",
        "[q1 .. q3] a",
        "median b",
        "[q1 .. q3] b",
        "b/a (base a)",
        "bound"
    );
    let mut regressed = 0;
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            continue;
        };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let (a1, am, a3) = quartiles(va);
            let (b1, bm, b3) = quartiles(vb);
            let worse = if bound.higher_is_better {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let spread = ((a3 - a1) / am).abs().max(((b3 - b1) / bm).abs());
            let verdict = if spread > bound.bound {
                "unresolved"
            } else if worse > bound.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<22} {:>3} {:>14.4} {:>22} {:>14.4} {:>22} {:>7.4} of {:<6.4} {:>6.1}%  {}",
                workload,
                bound.name,
                va.len().min(vb.len()),
                am,
                format!("[{a1:.4} .. {a3:.4}]"),
                bm,
                format!("[{b1:.4} .. {b3:.4}]"),
                bm / am,
                am,
                bound.bound * 100.0,
                verdict
            );
        }
        // The same seed on both sides must give the same simulated runs.
        if let (Some(fa), Some(fb)) = (fp_a.get(workload), fp_b.get(workload)) {
            let shared: Vec<_> = fa
                .iter()
                .filter_map(|(seed, a)| Some((a, fb.get(seed)?)))
                .collect();
            let differ = shared.iter().filter(|(a, b)| a != b).count();
            println!(
                "{workload:<18} sim_fingerprint: {} seeds on both sides, {differ} differ  {}",
                shared.len(),
                if differ == 0 { "ok" } else { "regressed" }
            );
            regressed += differ;
        }
    }
    Ok(regressed)
}
