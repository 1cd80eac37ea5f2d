//! Output: the metric tables printed per workload, the contract's result
//! line, the result document, the Chrome trace files, and `--compare`.

use crate::metrics::{self, Better, Metric, Values};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Budget, RunOptions, WorkloadResult};
use dse_telemetry::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// This package's directory. The benchmark is built where it runs, so the
/// compile-time path is the run-time one.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    std::fs::write(path, text).map_err(err)
}

/// Writes `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let path = package_dir().join(format!("out/trace-{workload}.json"));
    write_file(
        &path,
        &format!("{}\n", trace::chrome_trace(workload, tracer)),
    )
}

fn print_table(title: &str, table: &[Metric], values: &Values) {
    println!("  {title}");
    for m in table {
        println!("    {:<36} {:>16.6} {}", m.name, values[m.name], m.unit);
    }
}

/// Prints every metric of a workload by name, with its unit, and the
/// per-program rows behind the means.
pub fn print_workload(r: &WorkloadResult) {
    println!(
        "== {}: {} operations, {} failed, {}",
        r.name,
        r.attempted,
        r.failed,
        if r.correct() { "correct" } else { "INCORRECT" }
    );
    for p in &r.problems {
        println!("  problem: {p}");
    }
    print_table("end to end", metrics::END_TO_END, &r.end_to_end);
    print_table(
        "per layer (0 = not exercised by this workload)",
        metrics::PER_LAYER,
        &r.per_layer,
    );
    let cells: Vec<String> = r.samples.iter().map(|(c, n)| format!("{c}={n}")).collect();
    println!("  samples: {}", cells.join(" "));
    println!("  per program:");
    for (name, values) in &r.programs {
        let row: Vec<String> = values
            .iter()
            .filter(|(k, _)| metrics::find(k).is_some_and(|m| m.bound.is_some()))
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect();
        if !row.is_empty() {
            println!("    {name:<10} {}", row.join(" "));
        }
    }
    if !r.self_times.is_empty() {
        println!("  self time by span (ms total, count):");
        for (name, (ms, n)) in &r.self_times {
            println!("    {name:<24} {ms:>12.3} {n:>7}");
        }
    }
}

fn values_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Float(*v)))
            .collect(),
    )
}

/// The contract's result line: end-to-end metrics after an untraced run,
/// per-layer metrics after a traced one.
pub fn result_line(r: &WorkloadResult, traced: bool) -> Json {
    let (table, values) = if traced {
        (metrics::PER_LAYER, &r.per_layer)
    } else {
        (metrics::END_TO_END, &r.end_to_end)
    };
    let metrics = table
        .iter()
        .filter_map(|m| {
            let value = Json::Float(*values.get(m.name)?);
            let entry = Json::obj(vec![("value", value), ("unit", Json::Str(m.unit.into()))]);
            Some((m.name.to_string(), entry))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Int(r.attempted as i64)),
        ("failed", Json::Int(r.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The result document of one workload run: every metric, every row.
/// [`merge_documents`] joins several into one document of several sets.
pub fn document(opts: RunOptions, r: &WorkloadResult) -> Json {
    let ints = |rows: &[(String, usize)]| {
        Json::Obj(
            rows.iter()
                .map(|(c, n)| (c.clone(), Json::Int(*n as i64)))
                .collect(),
        )
    };
    let self_times = r.self_times.iter().map(|(name, (ms, n))| {
        let row = vec![("ms", Json::Float(*ms)), ("count", Json::Int(*n as i64))];
        (name.to_string(), Json::obj(row))
    });
    let workload = Json::obj(vec![
        ("name", Json::Str(r.name.into())),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Int(r.attempted as i64)),
        ("failed", Json::Int(r.failed as i64)),
        (
            "problems",
            Json::Arr(r.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end", values_json(&r.end_to_end)),
        ("per_layer", values_json(&r.per_layer)),
        (
            "programs",
            Json::Obj(
                r.programs
                    .iter()
                    .map(|(n, v)| (n.clone(), values_json(v)))
                    .collect(),
            ),
        ),
        ("samples", ints(&r.samples)),
        ("self_times", Json::Obj(self_times.collect())),
    ]);
    let budget = match opts.budget {
        Budget::Seconds(s) => ("seconds", Json::Float(s)),
        Budget::Rounds(n) => ("rounds", Json::Int(n as i64)),
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("schema", Json::Str("dse-benchmark-v1".into())),
        ("seed", Json::Int(opts.seed as i64)),
        ("budget", Json::obj(vec![budget])),
        ("traced", Json::Bool(opts.traced)),
        ("available_parallelism", Json::Int(threads as i64)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        (
            "sets",
            Json::Arr(vec![Json::obj(vec![(
                "workloads",
                Json::Arr(vec![workload]),
            )])]),
        ),
    ])
}

pub fn read_document(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One document out of the single-workload documents of several sets: the
/// first one's header, and per set the workloads in the order given.
pub fn merge_documents(sets: Vec<Vec<Json>>) -> Result<Json, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        let sets = doc
            .get("sets")
            .and_then(Json::as_arr)
            .ok_or("no `sets` array")?;
        Ok(sets
            .iter()
            .filter_map(|s| s.get("workloads").and_then(Json::as_arr))
            .flatten()
            .cloned()
            .collect())
    };
    let Some(Json::Obj(header)) = sets.first().and_then(|s| s.first()).cloned() else {
        return Err("nothing to merge".into());
    };
    let mut merged = Vec::new();
    for set in &sets {
        let mut all = Vec::new();
        for doc in set {
            all.extend(workloads(doc)?);
        }
        merged.push(Json::obj(vec![("workloads", Json::Arr(all))]));
    }
    Ok(Json::Obj(
        header
            .into_iter()
            .map(|(k, v)| {
                if k == "sets" {
                    (k, Json::Arr(merged.clone()))
                } else {
                    (k, v)
                }
            })
            .collect(),
    ))
}

/// (workload, metric) → the value each set of a document reports, for
/// every metric that carries a bound.
type Series = BTreeMap<(String, &'static str), Vec<f64>>;

fn series(doc: &Json) -> Result<Series, String> {
    let mut out = Series::new();
    let sets = doc
        .get("sets")
        .and_then(Json::as_arr)
        .ok_or("no `sets` array")?;
    for workload in sets
        .iter()
        .filter_map(|s| s.get("workloads").and_then(Json::as_arr))
        .flatten()
    {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let value = ["end_to_end", "per_layer"]
                .iter()
                .find_map(|t| workload.get(t)?.get(m.name)?.as_f64());
            if let (Some(v), Some(_)) = (value, m.bound) {
                out.entry((name.to_string(), m.name)).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// How `b` stands against the base `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The median is worse than the base's by more than the bound.
    Worse,
    /// Within the bound, but the run-to-run spread is wider than the bound
    /// and the runs overlap: neither "unchanged" nor "worse" is shown.
    Unresolved,
}

/// The share of the base's median by which `b`'s median is worse.
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        _ if a == b => 0.0,
        _ if a == 0.0 => f64::INFINITY,
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    if worse_by(m, stats::median(a), stats::median(b)) > bound {
        return Verdict::Worse;
    }
    let spread = |v: &[f64]| if v.len() >= 2 { stats::spread(v) } else { 0.0 };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let b_always_better = match m.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if spread(a).max(spread(b)) > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, bounded metric) of `a` against `b`;
/// returns false if any is worse.
fn compare(a: &Series, b: &Series) -> bool {
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>6}  verdict   (ratio = B / A, base A)",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut none_worse = true;
    for ((workload, name), av) in a {
        let (Some(bv), Some(m)) = (b.get(&(workload.clone(), *name)), metrics::find(name)) else {
            continue;
        };
        let (am, bm) = (stats::median(av), stats::median(bv));
        if am == 0.0 && bm == 0.0 {
            continue; // not exercised by this workload
        }
        let v = verdict(m, av, bv);
        none_worse &= v != Verdict::Worse;
        println!(
            "{workload:<14} {name:<24} {am:>14.6} {bm:>14.6} {:>9.4} {:>6.2}  {}",
            stats::ratio(bm, am),
            m.bound.unwrap_or(0.0),
            match v {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    none_worse
}

/// `--compare A.json B.json`.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load =
        |path: &str| series(&read_document(Path::new(path))?).map_err(|e| format!("{path}: {e}"));
    Ok(compare(&load(a)?, &load(b)?))
}

/// After `--sets N`: every bounded metric's value in each set and the
/// widest disagreement between any two sets (max / min - 1) against the
/// bound. Returns false if any pair of sets disagrees by more.
pub fn print_sets_agreement(doc: &Json) -> Result<bool, String> {
    let series = series(doc)?;
    println!("== agreement between sets (max / min - 1 against the bound)");
    let mut agree = true;
    for ((workload, name), values) in &series {
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        if max == 0.0 && min == 0.0 {
            continue; // not exercised by this workload
        }
        let gap = if max == min {
            0.0
        } else {
            stats::ratio(max, min) - 1.0
        };
        let bound = metrics::find(name).and_then(|m| m.bound).unwrap_or(0.0);
        let ok = gap <= bound && !(min == 0.0 && max > 0.0);
        agree &= ok;
        let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{workload:<14} {name:<24} {:<48} gap {gap:>7.4} bound {bound:>5.2}  {}",
            listed.join(" "),
            if ok { "ok" } else { "disagree" }
        );
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> &'static Metric {
        metrics::find("op_ms_min").expect("listed")
    }

    #[test]
    fn verdicts() {
        let m = lower(); // lower is better, bound 0.10
        assert_eq!(verdict(m, &[10.0], &[10.9]), Verdict::Ok);
        assert_eq!(verdict(m, &[10.0], &[11.1]), Verdict::Worse);
        assert_eq!(verdict(m, &[10.0], &[5.0]), Verdict::Ok);
        // Spread wider than the bound, overlapping runs: unresolved.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            verdict(m, &noisy, &[9.0, 10.5, 11.5, 8.5, 10.0]),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(verdict(m, &noisy, &[5.0, 6.0, 7.0, 5.5, 6.5]), Verdict::Ok);
        let higher = metrics::find("requests_per_s").expect("listed");
        assert_eq!(verdict(higher, &[100.0], &[91.0]), Verdict::Ok);
        assert_eq!(verdict(higher, &[100.0], &[89.0]), Verdict::Worse);
        let exact = metrics::find("fail_share").expect("listed");
        assert_eq!(verdict(exact, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(verdict(exact, &[0.0], &[0.01]), Verdict::Worse);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            name: "compile_cold",
            attempted: 7,
            end_to_end: metrics::roll_up(metrics::END_TO_END, &[], &Values::new()),
            per_layer: metrics::roll_up(metrics::PER_LAYER, &[], &Values::new()),
            ..Default::default()
        };
        for (traced, table) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
            let line = result_line(&r, traced);
            let Json::Obj(pairs) = &line else {
                panic!("object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(ms)) = line.get("metrics") else {
                panic!("metrics")
            };
            assert_eq!(ms.len(), table.len());
            assert!(!line.to_string().contains('\n'));
        }
    }

    #[test]
    fn a_document_compares_equal_to_itself() {
        let r = WorkloadResult {
            name: "compile_cold",
            attempted: 1,
            end_to_end: Values::from([("setup_s", 1.0), ("op_ms_min", 50.0)]),
            ..Default::default()
        };
        let opts = RunOptions {
            seed: 1,
            budget: Budget::Seconds(1.0),
            traced: false,
        };
        let doc = document(opts, &r);
        let two_sets = merge_documents(vec![vec![doc.clone()], vec![doc.clone()]]).expect("merge");
        assert_eq!(
            series(&two_sets)
                .expect("series")
                .values()
                .next()
                .map(Vec::len),
            Some(2)
        );
        assert_eq!(print_sets_agreement(&two_sets), Ok(true));
        let back = Json::parse(&doc.to_string()).expect("round trip");
        assert_eq!(back.get("claim"), Some(&Json::Null));
        let s = series(&back).expect("series");
        assert_eq!(s[&("compile_cold".to_string(), "op_ms_min")], [50.0]);
        assert!(compare(&s, &s));
    }
}
