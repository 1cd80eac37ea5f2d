//! # dse-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's Section 4 over the
//! eight workload models:
//!
//! | artifact | runner | paper reference |
//! |---|---|---|
//! | Table 4 | [`table4`] | benchmark characteristics |
//! | Table 5 | [`table5`] | privatized structure counts |
//! | Figure 8 | [`fig8`] | dynamic-access breakdown |
//! | Figure 9a/9b | [`fig9`] | expansion overhead without/with opts |
//! | Figure 10 | [`fig10`] | expansion vs runtime privatization overhead |
//! | Figure 11a/11b | [`fig11_sim`] | loop and total speedups vs cores |
//! | Figure 12 | [`fig12_sim`] | instruction breakdown on 8 cores |
//! | Figure 13 | [`fig13_sim`] | runtime-privatization speedup |
//! | Figure 14 | [`fig14`] | memory use multiple |
//!
//! Instruction counts come from the VM's counters. Speedups past this
//! host's cores come from the schedule simulator ([`sim`]), which replays
//! measured per-iteration costs through the executor's own claim policy;
//! [`fig11_sim`] also times real threads at [`wall_threads`] so every
//! simulated speedup is printed next to the wall-clock one it claims to
//! predict. Performance itself is measured by `benchmark/` (the ledger),
//! not here. Run the `figures` binary with `--release`.

pub mod sim;
pub mod table;

use dse_core::{Analysis, OptLevel};
use dse_ir::bytecode::CompiledProgram;
use dse_ir::loops::ParMode;
use dse_runtime::{BackendKind, Counters, LoopProfile, Vm, VmConfig};
use dse_workloads::{Scale, Workload};
use std::time::{Duration, Instant};
use table::{col, series, Cell, Col, Row, Table};

/// Thread counts used by the speedup experiments (the paper's X axis).
pub const CORE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Builds the analysis (profile + classification) for a workload.
///
/// # Panics
///
/// Panics when the pipeline fails on a bundled workload (a bug).
pub fn analyze(w: &Workload) -> Analysis {
    Analysis::from_source(w.source, w.vm_config(Scale::Profile))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// The configuration of every VM `figures` builds: `w` at `scale` on
/// `nthreads` threads, on the reference stack interpreter. The profiler
/// counts Table 4's `in_loops` on the stack encoding, and Figures 10 and
/// 13 charge the runtime-privatization baseline 20 instructions per
/// `Counters::private_direct` access, which the register encoding does
/// not form for a replica it keeps in a register; so every count the
/// figures divide is measured there.
fn vm_config(w: &Workload, scale: Scale, nthreads: u32) -> VmConfig {
    VmConfig {
        nthreads,
        backend: BackendKind::Stack,
        ..w.vm_config(scale)
    }
}

fn timed_run(
    compiled: &CompiledProgram,
    w: &Workload,
    scale: Scale,
    nthreads: u32,
) -> (Duration, dse_runtime::RunReport, Vec<i64>) {
    let mut vm = Vm::new(compiled.clone(), vm_config(w, scale, nthreads)).expect("vm");
    let t0 = Instant::now();
    let report = vm.run().unwrap_or_else(|e| panic!("{} run: {e}", w.name));
    (t0.elapsed(), report, vm.outputs_int())
}

/// The counters of a one-thread run of `compiled`.
fn counters(compiled: &CompiledProgram, w: &Workload, scale: Scale) -> Counters {
    timed_run(compiled, w, scale, 1).1.counters
}

/// Instructions the original program retires at `scale` (the denominator
/// of every overhead and simulated speedup).
fn serial_work(analysis: &Analysis, w: &Workload, scale: Scale) -> f64 {
    counters(&analysis.serial, w, scale).work as f64
}

/// Harmonic mean of a positive series (the paper's average of choice).
pub fn harmonic_mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut s) = (0usize, 0.0);
    for x in xs {
        n += 1;
        s += 1.0 / x;
    }
    n as f64 / s
}

/// The first column of every artifact.
fn name(w: &Workload) -> (Col, Cell) {
    col("benchmark", "name", -10).of(Cell::Text(w.name.into()))
}

/// Table 4 — benchmark characteristics. `par` is the parallelism the pass
/// classified (it must match the paper's); `%time` is the measured
/// candidate-loop share of execution, in instructions; `model-LOC` counts
/// our Cee model, `paper-LOC` the original C.
pub fn table4(workloads: &[Workload]) -> Table {
    let row = |w: &Workload| {
        let analysis = analyze(w);
        // `in_loops` and this denominator are both stack-encoding counts
        // (see `vm_config`).
        let work = counters(&analysis.serial, w, Scale::Profile).work;
        let in_loops: u64 = analysis.profile.loops.iter().map(|l| l.instructions).sum();
        let time_pct = 100.0 * in_loops as f64 / work as f64;
        let mode = analysis.classifications[0].mode;
        vec![
            name(w),
            col("suite", "suite", -14).of(Cell::Text(w.paper.suite.into())),
            col("model-LOC", "model_loc", 9).of(Cell::Int(w.model_loc() as i64)),
            col("paper-LOC", "paper_loc", 10).of(Cell::Int(w.paper.loc as i64)),
            col("level", "level", 6).of(Cell::Int(w.paper.level as i64)),
            col("par", "parallelism", 9).of(Cell::Text(mode.to_string())),
            col("%time", "time_pct", 8).of(Cell::Percent(time_pct)),
            col("paper%", "paper_time_pct", 10).of(Cell::Percent(w.paper.time_pct)),
            col("function", "function", -1).of(Cell::Text(w.paper.function.into())),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Table 5 — data structures privatized by our pass (alloc sites, globals
/// and aggregate locals), with expanded scalars (classic scalar expansion)
/// reported separately.
pub fn table5(workloads: &[Workload]) -> Table {
    let row = |w: &Workload| {
        let report = analyze(w)
            .transform(OptLevel::Full, 4)
            .expect("transform")
            .report;
        let privatized = report.privatized_structures() as i64;
        vec![
            name(w),
            col("#privatized", "privatized", 11).of(Cell::Int(privatized)),
            col("paper", "paper_privatized", 7).of(Cell::Int(w.paper.privatized as i64)),
            col("+scalars", "scalars", 8).of(Cell::Int(report.expanded_scalar_locals as i64)),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Figure 8 — the breakdown of each loop's dynamic accesses into "free of
/// loop-carried dep", "expandable" and "with loop-carried dep" (summed
/// over a program's candidate loops; the shares sum to 1).
pub fn fig8(workloads: &[Workload]) -> Table {
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let mut total = dse_core::AccessBreakdown::default();
        for (ddg, cls) in analysis.profile.loops.iter().zip(&analysis.classifications) {
            let b = cls.access_breakdown(ddg);
            total.free += b.free;
            total.expandable += b.expandable;
            total.carried += b.carried;
        }
        let (free, expandable, carried) = total.fractions();
        vec![
            name(w),
            col("free-of-carried", "free_of_carried", 16).of(Cell::Share(free)),
            col("expandable", "expandable", 12).of(Cell::Share(expandable)),
            col("with-carried", "with_carried", 16).of(Cell::Share(carried)),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Figure 9 — sequential slowdown of the transformed program over the
/// original, in instructions and in wall time, at the given optimization
/// level ([`OptLevel::None`] → Figure 9a, [`OptLevel::Full`] → Figure 9b).
pub fn fig9(workloads: &[Workload], opt: OptLevel, scale: Scale) -> Table {
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let (tb, rb, ob) = timed_run(&analysis.serial, w, scale, 1);
        let t = analysis.transform(opt, 1).expect("transform");
        let (tt, rt, ot) = timed_run(&t.parallel, w, scale, 1);
        assert_eq!(ob, ot, "{}: transformed output differs", w.name);
        let instructions = rt.counters.work as f64 / rb.counters.work as f64;
        let wall = tt.as_secs_f64() / tb.as_secs_f64();
        vec![
            name(w),
            col("instructions", "slowdown_instructions", 13).of(Cell::Times(instructions, 3)),
            col("wall-time", "slowdown_time", 10).of(Cell::Times(wall, 3)),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Figure 10 — sequential instruction overhead of static expansion vs
/// dynamic (runtime) privatization.
pub fn fig10(workloads: &[Workload], scale: Scale) -> Table {
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let base = serial_work(&analysis, w, scale);
        let t = analysis.transform(OptLevel::Full, 1).expect("transform");
        let rt = counters(&t.parallel, w, scale);
        let b = analysis.baseline_parallel(1).expect("baseline");
        let rp = counters(&b.parallel, w, scale);
        // The baseline's cost model: every monitored private access
        // (heap translations and statically privatized accesses alike,
        // per SpiceC's all-accesses monitoring) costs a runtime lookup
        // (≈ 20 native instructions), plus the bytes copied in/out.
        let priv_cost = rp.work as f64
            + 20.0 * (rp.localize_calls + rp.private_direct) as f64
            + 0.25 * rp.localize_copied_bytes as f64;
        vec![
            name(w),
            col("expansion", "expansion", 10).of(Cell::Times(rt.work as f64 / base, 3)),
            col("runtime-priv", "runtime_priv", 13).of(Cell::Times(priv_cost / base, 3)),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Scheduling mode per loop id.
pub type LoopModes = std::collections::HashMap<u32, ParMode>;

/// Runs a program serially with the loop record on, returning the
/// instruction total, the record (one cost vector per dynamic loop entry),
/// and per-loop modes.
fn record_profile(
    compiled: &CompiledProgram,
    w: &Workload,
    scale: Scale,
) -> (u64, Vec<LoopProfile>, LoopModes, Counters) {
    let cfg = VmConfig {
        profile: true,
        ..vm_config(w, scale, 1)
    };
    let mut vm = Vm::new(compiled.clone(), cfg).expect("vm");
    let report = vm.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let modes = compiled
        .loops
        .iter()
        .enumerate()
        .map(|(i, l)| (i as u32, l.mode.unwrap_or(ParMode::DoAll)))
        .collect();
    (report.counters.work, vm.profile(), modes, report.counters)
}

/// The program `parallel(n)` builds for `n` threads, replayed by the
/// schedule simulator (see [`sim`]) at each of [`CORE_COUNTS`]:
/// candidate-loop speedup, and whole-program speedup over the original.
fn sim_speedups(
    w: &Workload,
    scale: Scale,
    serial_ref: f64,
    charge_localize: bool,
    parallel: impl Fn(u32) -> CompiledProgram,
) -> (Vec<f64>, Vec<f64>) {
    let sims = CORE_COUNTS.map(|n| {
        let (tot, profile, modes, _) = record_profile(&parallel(n), w, scale);
        sim::simulate_program(tot, &profile, &modes, n, charge_localize)
    });
    let loop_only = sims
        .iter()
        .map(|ps| ps.loop_serial / ps.loop_time.max(1e-9));
    let total = sims.iter().map(|ps| serial_ref / ps.total_time);
    (loop_only.collect(), total.collect())
}

/// One row of a speedup figure (11 or 13).
fn speedup_row(w: &Workload, (loop_only, total): (Vec<f64>, Vec<f64>)) -> Row {
    vec![
        name(w),
        series("loop", "loop_only", &CORE_COUNTS).of(Cell::Series(loop_only)),
        series("total", "total", &CORE_COUNTS).of(Cell::Series(total)),
    ]
}

/// Threads the wall-clock side of [`fig11_sim`] runs on: this host has 2
/// cores, and a single-core host can still compare at 1.
pub fn wall_threads() -> u32 {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2) as u32)
}

/// Seconds of the fastest of three timed runs.
fn min_of_3(compiled: &CompiledProgram, w: &Workload, scale: Scale, nthreads: u32) -> f64 {
    let fastest = (0..3)
        .map(|_| timed_run(compiled, w, scale, nthreads).0)
        .min();
    fastest.expect("three runs").as_secs_f64()
}

/// Figure 11 through the multicore **schedule simulator** (see [`sim`]):
/// per-iteration costs are measured in the VM, then replayed under the
/// executor's DOALL/DOACROSS policies at each core count. The second
/// table answers for the first: at [`wall_threads`] — the one core count
/// where this host has both — each program's simulated total speedup sits
/// beside serial-over-parallel wall time (fastest of three runs each).
pub fn fig11_sim(workloads: &[Workload], scale: Scale) -> (Table, Table) {
    let threads = wall_threads();
    let at = CORE_COUNTS.iter().position(|&n| n == threads);
    let at = at.expect("wall_threads is a core count");
    let mut vs_wall = Vec::new();
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let expanded = |n| {
            analysis
                .transform(OptLevel::Full, n)
                .expect("transform")
                .parallel
        };
        let serial_ref = serial_work(&analysis, w, scale);
        let speedups = sim_speedups(w, scale, serial_ref, false, expanded);
        let sim = speedups.1[at];
        let wall = min_of_3(&analysis.serial, w, scale, 1)
            / min_of_3(&expanded(threads), w, scale, threads);
        vs_wall.push(vec![
            name(w),
            col("threads", "threads", 7).of(Cell::Int(threads as i64)),
            col("sim", "sim", 8).of(Cell::Times(sim, 2)),
            col("wall", "wall", 8).of(Cell::Times(wall, 2)),
            col("sim/wall", "ratio", 9).of(Cell::Times(sim / wall, 2)),
        ]);
        speedup_row(w, speedups)
    };
    let speedups = Table::new(workloads.iter().map(row).collect());
    (speedups, Table::new(vs_wall))
}

/// Figure 13 through the schedule simulator: the runtime-privatization
/// baseline, each `Localize` call charged its modeled runtime cost.
pub fn fig13_sim(workloads: &[Workload], scale: Scale) -> Table {
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let baseline = |n| analysis.baseline_parallel(n).expect("baseline").parallel;
        let serial_ref = serial_work(&analysis, w, scale);
        speedup_row(w, sim_speedups(w, scale, serial_ref, true, baseline))
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Figure 12 from the schedule simulation at 8 cores: how the workers'
/// cycles split between useful work, waiting on cross-iteration ordering
/// (the paper's `do_wait`/`cpu_relax`), and post/wait operations.
pub fn fig12_sim(workloads: &[Workload], scale: Scale) -> Table {
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let t = analysis.transform(OptLevel::Full, 8).expect("transform");
        let (tot, profile, modes, counters) = record_profile(&t.parallel, w, scale);
        let ps = sim::simulate_program(tot, &profile, &modes, 8, false);
        let outside = (tot as f64 - sim::recorded_instructions(&profile) as f64).max(0.0);
        let sync = counters.sync_ops as f64;
        let work = outside + ps.busy - sync;
        let total = work + ps.idle + sync;
        vec![
            name(w),
            col("work", "work", 7).of(Cell::Share(work / total)),
            col("wait(do_wait/relax)", "wait", 19).of(Cell::Share(ps.idle / total)),
            col("sync-ops", "sync", 10).of(Cell::Share(sync / total)),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Figure 14 — peak heap at 2/4/8 threads as a multiple of the original
/// program's, for expansion (`exp`) and runtime privatization (`priv`).
pub fn fig14(workloads: &[Workload], scale: Scale) -> Table {
    const THREADS: [u32; 3] = [2, 4, 8];
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let (_, rb, _) = timed_run(&analysis.serial, w, scale, 1);
        let base = rb.peak_heap_bytes.max(1) as f64;
        let peak = |p: &CompiledProgram, n| timed_run(p, w, scale, n).1.peak_heap_bytes as f64;
        let expansion = THREADS.map(|n| {
            let t = analysis.transform(OptLevel::Full, n).expect("transform");
            peak(&t.parallel, n) / base
        });
        let runtime_priv = THREADS.map(|n| {
            let b = analysis.baseline_parallel(n).expect("baseline");
            peak(&b.parallel, n) / base
        });
        vec![
            name(w),
            series("exp", "expansion", &THREADS).of(Cell::Series(expansion.to_vec())),
            series("priv", "runtime_priv", &THREADS).of(Cell::Series(runtime_priv.to_vec())),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

/// Each DOACROSS workload with the loop record of its 8-thread
/// transformation — what both DOACROSS ablations replay.
fn doacross_profiles(
    workloads: &[Workload],
    scale: Scale,
) -> impl Iterator<Item = (&Workload, Vec<LoopProfile>, LoopModes)> {
    let doacross = workloads
        .iter()
        .filter(|w| w.paper.parallelism == ParMode::DoAcross);
    doacross.map(move |w| {
        let t = analyze(w).transform(OptLevel::Full, 8).expect("transform");
        let (_, profile, modes, _) = record_profile(&t.parallel, w, scale);
        (w, profile, modes)
    })
}

/// Simulated 8-core loop speedup over every recorded loop entry, with each
/// iteration reshaped by `shape` and claimed `chunk` at a time.
fn loop_speedup_8c(
    profile: &[LoopProfile],
    modes: &LoopModes,
    chunk: usize,
    shape: impl Fn(sim::SimIter) -> sim::SimIter,
) -> f64 {
    let (mut serial, mut time) = (0.0, 0.0);
    for p in profile {
        for entry in &p.costs {
            let iters = entry.iter().map(|c| shape(sim::to_sim_iter(c, false)));
            let iters: Vec<sim::SimIter> = iters.collect();
            serial += iters.iter().map(sim::SimIter::total).sum::<f64>();
            time += sim::simulate_entry_chunked(modes[&p.loop_id], &iters, 8, chunk).time;
        }
    }
    serial / time.max(1e-9)
}

/// Ablation: the DOACROSS claim size (the paper fixes it at 1, Section
/// 4.3), swept over the DOACROSS workloads.
pub fn ablation_chunk(workloads: &[Workload], scale: Scale) -> Table {
    let row = |(w, profile, modes): (&Workload, Vec<LoopProfile>, LoopModes)| {
        let sweep = [1usize, 2, 4, 8, 16]
            .map(|chunk| (chunk, loop_speedup_8c(&profile, &modes, chunk, |it| it)));
        let speedups = Cell::Sweep("chunk", sweep.to_vec());
        vec![
            name(w),
            col("speedup per claim size", "speedups", -1).of(speedups),
        ]
    };
    Table::new(doacross_profiles(workloads, scale).map(row).collect())
}

/// Ablation: the DOACROSS synchronization *placement* (Section 4.3: "we
/// also place necessary inter-thread synchronization") — the computed
/// Wait/Post window around the shared carried accesses vs the executor's
/// fallback, where every iteration posts only when it finishes and the
/// whole body is the ordered section.
pub fn ablation_sync(workloads: &[Workload], scale: Scale) -> Table {
    let whole_body = |it: sim::SimIter| sim::SimIter {
        pre: 0.0,
        window: it.window + (it.pre + it.post),
        post: 0.0,
    };
    let row = |(w, profile, modes): (&Workload, Vec<LoopProfile>, LoopModes)| {
        let with_window = loop_speedup_8c(&profile, &modes, 1, |it| it);
        let without_window = loop_speedup_8c(&profile, &modes, 1, whole_body);
        vec![
            name(w),
            col("window", "with_window", 8).of(Cell::Times(with_window, 2)),
            col("whole-body", "without_window", 10).of(Cell::Times(without_window, 2)),
        ]
    };
    Table::new(doacross_profiles(workloads, scale).map(row).collect())
}

/// Ablation: the Section 3.1 layout comparison — sequential instruction
/// overhead of bonded and of interleaved expansion where interleaving is
/// structurally possible, and the paper's bonded-only argument (untyped
/// heap blocks, recasts, interior pointers) where it is not.
pub fn ablation_layout(workloads: &[Workload], scale: Scale) -> Table {
    use dse_core::LayoutMode;
    let row = |w: &Workload| {
        let analysis = analyze(w);
        let base = serial_work(&analysis, w, scale);
        let overhead = |layout| {
            let t = analysis.transform_with_layout(OptLevel::Full, 1, layout)?;
            Ok(timed_run(&t.parallel, w, scale, 1).1.counters.work as f64 / base)
        };
        let bonded: Result<f64, dse_core::DseError> = overhead(LayoutMode::Bonded);
        let (interleaved, blocker) = match overhead(LayoutMode::Interleaved) {
            Ok(x) => (Cell::Times(x, 3), Cell::Missing),
            Err(e) => (Cell::Missing, Cell::Text(e.to_string())),
        };
        vec![
            name(w),
            col("bonded", "bonded", 8).of(Cell::Times(bonded.expect("bonded transform"), 3)),
            col("interleaved", "interleaved", 11).of(interleaved),
            col("why interleaving is impossible", "blocker", -1).of(blocker),
        ]
    };
    Table::new(workloads.iter().map(row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workloads::by_name;

    fn small() -> Vec<Workload> {
        vec![by_name("md5").unwrap(), by_name("hmmer").unwrap()]
    }

    /// The cell of `row` under JSON key `key`.
    fn cell<'t>(row: &'t Row, key: &str) -> &'t Cell {
        let found = row.iter().find(|(c, _)| c.key == key);
        &found.unwrap_or_else(|| panic!("no column `{key}`")).1
    }

    /// The one number in that cell.
    fn num(row: &Row, key: &str) -> f64 {
        match cell(row, key) {
            Cell::Int(v) => *v as f64,
            Cell::Percent(v) | Cell::Share(v) | Cell::Times(v, _) => *v,
            other => panic!("`{key}` holds {other:?}"),
        }
    }

    #[test]
    fn table4_rows_are_complete() {
        let t = table4(&small());
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            let pct = num(r, "time_pct");
            assert!(pct > 0.0 && pct <= 100.0);
            assert!(matches!(cell(r, "parallelism"), Cell::Text(p) if !p.is_empty()));
            assert!(num(r, "model_loc") > 20.0);
        }
    }

    #[test]
    fn table5_counts_positive() {
        for r in &table5(&small()).rows {
            assert!(num(r, "privatized") >= 1.0, "{r:?}");
        }
    }

    #[test]
    fn fig8_fractions_sum_to_one() {
        for r in &fig8(&small()).rows {
            let s = num(r, "free_of_carried") + num(r, "expandable") + num(r, "with_carried");
            assert!((s - 1.0).abs() < 1e-9, "{r:?}: {s}");
            assert!(num(r, "expandable") > 0.0, "{r:?}: nothing expandable");
        }
    }

    #[test]
    fn fig9_full_cheaper_than_none() {
        let ws = small();
        let none = fig9(&ws, OptLevel::None, Scale::Profile);
        let full = fig9(&ws, OptLevel::Full, Scale::Profile);
        for (n, f) in none.rows.iter().zip(&full.rows) {
            let key = "slowdown_instructions";
            assert!(num(f, key) < num(n, key), "{n:?}");
        }
    }

    #[test]
    fn fig10_runtime_priv_costlier_for_hot_privatization() {
        // hmmer localizes its DP matrix on every access: runtime
        // privatization must cost more than expansion. (md5, whose scratch
        // is a global and therefore statically privatized even in the
        // baseline, is one of the paper's "cheap for runtime
        // privatization" cases.)
        let ws = vec![by_name("hmmer").unwrap()];
        let r = &fig10(&ws, Scale::Profile).rows[0];
        assert!(num(r, "runtime_priv") > num(r, "expansion"), "{r:?}");
    }

    #[test]
    fn fig11_pairs_every_simulated_speedup_with_a_wall_clock_one() {
        let (speedups, vs_wall) = fig11_sim(&small(), Scale::Profile);
        let at = CORE_COUNTS.iter().position(|&n| n == wall_threads());
        for (r, v) in speedups.rows.iter().zip(&vs_wall.rows) {
            assert_eq!(cell(r, "name"), cell(v, "name"));
            assert_eq!(cell(r, "total").ratios()[at.unwrap()], num(v, "sim"));
            let wall = num(v, "wall");
            assert!(wall.is_finite() && wall > 0.0, "{v:?}");
        }
    }

    #[test]
    fn fig12_fractions_valid() {
        for r in &fig12_sim(&small(), Scale::Profile).rows {
            let work = num(r, "work");
            assert!(work > 0.0 && work <= 1.0);
            assert!((work + num(r, "wait") + num(r, "sync") - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig14_expansion_memory_grows() {
        let ws = vec![by_name("md5").unwrap()];
        let t = fig14(&ws, Scale::Profile);
        // More threads, more copies.
        let expansion = cell(&t.rows[0], "expansion").ratios();
        assert!(expansion[2] >= expansion[0]);
    }

    #[test]
    fn ablation_sync_window_never_worse() {
        let ws = vec![by_name("hmmer").unwrap()];
        let t = ablation_sync(&ws, Scale::Profile);
        assert_eq!(t.rows.len(), 1);
        let (with, without) = (
            num(&t.rows[0], "with_window"),
            num(&t.rows[0], "without_window"),
        );
        assert!(with + 1e-9 >= without);
        assert!(without > 0.0);
    }

    #[test]
    fn harmonic_mean_matches_definition() {
        let hm = harmonic_mean([1.0, 2.0, 4.0]);
        assert!((hm - 3.0 / (1.0 + 0.5 + 0.25)).abs() < 1e-12);
    }
}
