//! Regenerates the paper's tables and figures on the workload models.
//!
//! Usage:
//!
//! ```text
//! figures [--scale profile|bench] [--workload NAME]...
//!         [table4 table5 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!          ablation-chunk ablation-sync ablation-layout | all]
//! ```
//!
//! Run with `--release`. Default scale is `bench`.
//!
//! Besides the printed tables, every requested artifact is also written as
//! machine-readable JSON to `results/figures.json` (keyed by artifact
//! name), so plots and regression checks don't have to scrape stdout.
//! Each artifact is a [`Table`] that declares its columns once, beside
//! the code that computes them; the text and the JSON rows are both
//! rendered from that declaration.

use dse_bench::table::Table;
use dse_bench::*;
use dse_core::OptLevel;
use dse_telemetry::Json;
use dse_workloads::{Scale, Workload};

struct Args {
    scale: Scale,
    workloads: Vec<Workload>,
    what: Vec<&'static Artifact>,
}

/// An artifact `figures` can regenerate: its command-line name (and key in
/// `results/figures.json`) and the function that prints it.
type Artifact = (&'static str, fn(&Args) -> Json);

static ARTIFACTS: [Artifact; 12] = [
    ("table4", table4_artifact),
    ("table5", table5_artifact),
    ("fig8", fig8_artifact),
    ("fig9", fig9_artifact),
    ("fig10", fig10_artifact),
    ("fig11", fig11_artifact),
    ("fig12", fig12_artifact),
    ("fig13", fig13_artifact),
    ("fig14", fig14_artifact),
    ("ablation-chunk", ablation_chunk_artifact),
    ("ablation-sync", ablation_sync_artifact),
    ("ablation-layout", ablation_layout_artifact),
];

fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Everything on the command line is checked here, before any artifact is
/// computed: a typo in the last name must not cost the minutes the first
/// ones take.
fn parse_args() -> Args {
    let mut scale = Scale::Bench;
    let mut workloads = Vec::new();
    let mut what = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("profile") => Scale::Profile,
                    Some("bench") => Scale::Bench,
                    other => usage_error(format!("unknown scale {other:?}")),
                }
            }
            "--workload" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage_error("--workload needs a name".into()));
                workloads.push(
                    dse_workloads::by_name(&n)
                        .unwrap_or_else(|| usage_error(format!("unknown workload `{n}`"))),
                );
            }
            "all" => what.extend(&ARTIFACTS),
            name => what.push(
                ARTIFACTS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| usage_error(format!("unknown artifact `{name}`"))),
            ),
        }
    }
    if what.is_empty() {
        what.extend(&ARTIFACTS);
    }
    if workloads.is_empty() {
        workloads = dse_workloads::all();
    }
    Args {
        scale,
        workloads,
        what,
    }
}

fn main() {
    let args = parse_args();
    let mut artifacts: Vec<(String, Json)> = Vec::new();
    for (name, print) in &args.what {
        artifacts.push((name.to_string(), print(&args)));
        println!();
    }
    let scale = match args.scale {
        Scale::Profile => "profile",
        Scale::Bench => "bench",
    };
    let doc = Json::obj(vec![
        ("scale", Json::Str(scale.to_string())),
        ("artifacts", Json::Obj(artifacts)),
    ]);
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/figures.json", format!("{doc}\n")))
    {
        eprintln!("figures: could not write results/figures.json: {e}");
        std::process::exit(1);
    }
    eprintln!("[wrote results/figures.json]");
}

/// Prints a table and returns its rows as JSON.
fn show(t: &Table) -> Json {
    print!("{t}");
    t.json()
}

fn table4_artifact(args: &Args) -> Json {
    println!("== Table 4: benchmark characteristics ==");
    show(&table4(&args.workloads))
}

fn table5_artifact(args: &Args) -> Json {
    println!("== Table 5: dynamic data structures privatized ==");
    show(&table5(&args.workloads))
}

fn fig8_artifact(args: &Args) -> Json {
    println!("== Figure 8: breakdown of dynamic memory accesses ==");
    show(&fig8(&args.workloads))
}

fn fig9_artifact(args: &Args) -> Json {
    let mut out = Vec::new();
    for (fig, key, opt, paper) in [
        ("9a (no optimizations)", "none", OptLevel::None, "1.8x"),
        ("9b (optimized)", "full", OptLevel::Full, "<1.05x"),
    ] {
        println!("== Figure {fig}: sequential slowdown of expanded code ==");
        let note = format!("(harmonic mean; paper: {paper})");
        let t = fig9(&args.workloads, opt, args.scale).with_hmean(&note);
        out.push((key.to_string(), show(&t)));
        println!();
    }
    Json::Obj(out)
}

fn fig10_artifact(args: &Args) -> Json {
    println!("== Figure 10: expansion vs runtime privatization (sequential overhead) ==");
    show(&fig10(&args.workloads, args.scale))
}

/// The members every speedup figure (11, 13) has: the core counts, and
/// loop and total speedup per core count (printed with a harmonic-mean
/// footer).
fn speedup_members(rows: Table) -> Vec<(&'static str, Json)> {
    let rows = show(&rows.with_hmean("(harmonic mean)"));
    let cores = CORE_COUNTS.iter().map(|&c| Json::Int(c as i64)).collect();
    vec![("core_counts", Json::Arr(cores)), ("rows", rows)]
}

fn fig11_artifact(args: &Args) -> Json {
    println!("== Figure 11: speedups, 11a loop / 11b total (schedule simulator) ==");
    let (rows, vs_wall) = fig11_sim(&args.workloads, args.scale);
    let mut members = speedup_members(rows);
    println!("(paper: harmonic mean total speedup 1.93x @4 cores, 2.24x @8 cores)");
    println!();
    println!("-- simulated vs measured total speedup, where this host has the cores --");
    members.push(("sim_vs_wall", show(&vs_wall)));
    Json::obj(members)
}

fn fig12_artifact(args: &Args) -> Json {
    println!("== Figure 12: dynamic cost breakdown at 8 cores (schedule simulator) ==");
    show(&fig12_sim(&args.workloads, args.scale))
}

fn fig13_artifact(args: &Args) -> Json {
    println!("== Figure 13: speedup under runtime privatization (schedule simulator) ==");
    let members = speedup_members(fig13_sim(&args.workloads, args.scale));
    println!("(paper: nearly no speedup for most benchmarks)");
    Json::obj(members)
}

fn fig14_artifact(args: &Args) -> Json {
    println!("== Figure 14: peak memory as a multiple of the original ==");
    println!("exp = expansion, priv = runtime privatization");
    show(&fig14(&args.workloads, args.scale))
}

fn ablation_chunk_artifact(args: &Args) -> Json {
    println!("== Ablation: DOACROSS claim size (paper uses 1) ==");
    println!("simulated loop speedup at 8 cores");
    show(&ablation_chunk(&args.workloads, args.scale))
}

fn ablation_sync_artifact(args: &Args) -> Json {
    println!("== Ablation: DOACROSS synchronization placement ==");
    println!("simulated 8-core loop speedup: computed window vs whole-body ordering");
    show(&ablation_sync(&args.workloads, args.scale))
}

fn ablation_layout_artifact(args: &Args) -> Json {
    println!("== Ablation: bonded vs interleaved layout (Section 3.1, Fig. 2) ==");
    println!("sequential instruction overhead vs the original program");
    show(&ablation_layout(&args.workloads, args.scale))
}
