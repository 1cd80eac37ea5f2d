//! `doall_exec` and `doacross_exec`: every program in three configurations
//! (orig, x1, x2) on the register backend, round-robin, closed loop, one
//! thread of load plus the pool worker of an x2 run.
//!
//! The bounded end-to-end metric `op_ms_min` covers the two single-threaded
//! configurations only. An x2 operation keeps two threads
//! busy, and on the 2-vCPU host this benchmark is sized for, two busy
//! threads run at anything between full and half speed each, for minutes
//! at a time, depending on where the hypervisor has put the vCPUs (two
//! independent single-threaded processes slow down the same way; see
//! README.md, "Measured spread"). The x2 results are reported beside them,
//! unbounded, as `xform_t2_run_ms`, `speedup_t2` and `runtime.*_t2`.

use crate::metrics::Values;
use crate::programs::{stack_run, Config, Outputs, Program};
use crate::stats::{self, geomean, median, ratio};
use crate::trace::Tracer;
use crate::{Budget, Pass};
use dse_runtime::{RunReport, Vm};
use std::sync::Arc;

/// An x2 operation runs in every `X2_EVERY`th round. Its results carry no
/// bound and each costs about two single-threaded operations; the samples
/// go to the cells the bounded metric is made of.
const X2_EVERY: usize = 2;

/// One timed operation: a fresh default-configured VM over the cached
/// register translation, the run, its outputs, and the VM's release.
struct Sample {
    op_ms: f64,
    build_ms: f64,
    run_ms: f64,
    report: RunReport,
}

fn exec_op(p: &Program, config: Config, tr: &mut Tracer) -> Result<Sample, String> {
    let variant = &p.variants[config as usize];
    let want = p.reference_exec.as_ref().expect("exec set-up ran");
    let (parts, op_ms) = tr.op("exec.op", p.name, config.name(), |tr| {
        let cfg = crate::programs::vm_config(&p.exec_inputs, config.nthreads());
        let (vm, build_ms) = tr.span("runtime.vm_build", |_| {
            Vm::with_reg(variant.code.clone(), Arc::clone(&variant.reg), cfg)
        });
        let mut vm = vm.map_err(|e| e.to_string())?;
        let (report, run_ms) = tr.span("runtime.exec", |_| vm.run());
        let report = report.map_err(|e| e.to_string())?;
        let (got, _) = tr.span("runtime.outputs", |_| Outputs::of_run(&vm, &report));
        tr.span("runtime.vm_drop", |_| drop(vm));
        if &got != want {
            return Err(format!(
                "outputs {got:?} differ from the reference {want:?}"
            ));
        }
        Ok((build_ms, run_ms, report))
    });
    let (build_ms, run_ms, report) =
        parts.map_err(|e| format!("{}/{}: {e}", p.name, config.name()))?;
    Ok(Sample {
        op_ms,
        build_ms,
        run_ms,
        report,
    })
}

/// The one untimed operation per program that ends set-up: the register
/// interpreter has run the transformed program once before it is timed.
pub fn warm_up(programs: &[Program], tr: &mut Tracer) -> Result<(), String> {
    programs
        .iter()
        .try_for_each(|p| exec_op(p, Config::X1, tr).map(drop))
}

/// Median of `f` over the samples of one cell.
fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// A count that must read the same in every sample of the cell.
fn exact(
    p: &Program,
    config: Config,
    what: &str,
    samples: &[Sample],
    f: impl Fn(&Sample) -> u64,
    problems: &mut Vec<String>,
) -> f64 {
    let first = samples.first().map_or(0, &f);
    if samples.iter().any(|s| f(s) != first) {
        problems.push(format!(
            "{}/{}: {what} did not repeat exactly across {} runs",
            p.name,
            config.name(),
            samples.len()
        ));
    }
    first as f64
}

/// One timed region over `programs`.
pub fn pass(programs: &[Program], budget: Budget, tr: &mut Tracer) -> Pass {
    let mut out = Pass::default();
    let mut cells: Vec<[Vec<Sample>; 3]> = programs.iter().map(|_| Default::default()).collect();
    let clock = budget.start();
    'rounds: for round in 0.. {
        for (pi, p) in programs.iter().enumerate() {
            for config in Config::ALL {
                if clock.done(round) {
                    break 'rounds;
                }
                if config == Config::X2 && round % X2_EVERY != 0 {
                    continue;
                }
                out.attempted += 1;
                match exec_op(p, config, tr) {
                    Ok(s) => cells[pi][config as usize].push(s),
                    Err(e) => out.fail(e),
                }
            }
        }
    }
    let (mut hits, mut misses) = (0.0, 0.0);
    for (p, cell) in programs.iter().zip(&cells) {
        if cell.iter().any(Vec::is_empty) {
            continue; // every operation of a cell failed; already counted
        }
        let [orig, x1, x2] = cell;
        let mut v = Values::new();
        let run = |c: &[Sample]| med(c, |s| s.run_ms);
        let ops: Vec<f64> = cell.iter().map(|c| med(c, |s| s.op_ms)).collect();
        let best: Vec<f64> = cell[..2]
            .iter()
            .map(|c| stats::min(&c.iter().map(|s| s.op_ms).collect::<Vec<_>>()))
            .collect();
        v.insert("op_ms_min", geomean(&best));
        v.insert("orig_run_ms", ops[0]);
        v.insert("xform_t2_run_ms", ops[2]);
        v.insert("seq_overhead", ratio(run(x1), run(orig)));
        v.insert("speedup_t2", ratio(run(orig), run(x2)));

        let work = |s: &Sample| s.report.counters.work;
        let peak = |s: &Sample| s.report.peak_heap_bytes;
        let problems = &mut out.problems;
        let work_orig = exact(p, Config::Orig, "instructions", orig, work, problems);
        let work_x1 = exact(p, Config::X1, "instructions", x1, work, problems);
        let peak_orig = exact(p, Config::Orig, "peak heap", orig, peak, problems);
        // Two threads' allocations interleave differently from run to run
        // (`dijkstra` allocates per queue node), so the x2 peak is a median.
        let peak_x2 = med(x2, |s| peak(s) as f64);
        v.insert("seq_overhead_instr", ratio(work_x1, work_orig));
        v.insert("mem_multiple_t2", ratio(peak_x2, peak_orig));
        v.insert("runtime.peak_heap_bytes_orig", peak_orig);
        v.insert("runtime.peak_heap_bytes_x2", peak_x2);

        let all: Vec<f64> = cell.iter().flatten().map(|s| s.build_ms).collect();
        v.insert("runtime.vm_build_ms", median(&all));
        v.insert("runtime.exec_ms_orig", run(orig));
        v.insert("runtime.exec_ms_x1", run(x1));
        v.insert("runtime.exec_ms_x2", run(x2));
        v.insert("runtime.instrs_orig", work_orig);
        v.insert("runtime.instrs_x1", work_x1);
        v.insert("runtime.instrs_x2", med(x2, |s| work(s) as f64));
        v.insert("runtime.minstr_per_s_x1", ratio(work_x1, run(x1) * 1e3));
        v.insert(
            "runtime.parallel_efficiency_t2",
            ratio(run(x1), 2.0 * run(x2)),
        );
        v.insert(
            "runtime.work_imbalance_t2",
            med(x2, |s| {
                let per: Vec<f64> = s.report.per_thread.iter().map(|c| c.work as f64).collect();
                let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
                ratio(per.iter().copied().fold(0.0, f64::max), mean)
            }),
        );
        type Count = fn(&RunReport) -> u64;
        let x2_counts: [(&'static str, Count); 10] = [
            ("runtime.pool_dispatches", |r| r.pool.dispatches),
            ("runtime.pool_steals", |r| r.pool.steals),
            ("runtime.pool_parks", |r| r.pool.parks),
            ("runtime.pool_wakeups", |r| r.pool.wakeups),
            ("runtime.wait_spins_t2", |r| r.counters.wait_spins),
            ("runtime.wait_yields_t2", |r| r.counters.wait_yields),
            ("runtime.sync_ops_t2", |r| r.counters.sync_ops),
            ("runtime.heap_cache_hits", |r| r.heap_contention.cache_hits),
            ("runtime.heap_cache_misses", |r| {
                r.heap_contention.cache_misses
            }),
            ("runtime.heap_backend_locks", |r| {
                r.heap_contention.backend_locks
            }),
        ];
        for (name, f) in x2_counts {
            v.insert(name, med(x2, |s| f(&s.report) as f64));
        }
        hits += v["runtime.heap_cache_hits"];
        misses += v["runtime.heap_cache_misses"];

        // The transformed program on the reference interpreter: one sample
        // per program, traced pass only (it costs ~4x a register run).
        if tr.enabled() {
            out.attempted += 1;
            let x1_code = &p.variants[Config::X1 as usize].code;
            let (res, _) = tr.op("exec.stack_x1", p.name, "stack_x1", |tr| {
                stack_run(x1_code, &p.exec_inputs, 1, tr)
            });
            match res {
                Ok((got, _, ms)) if Some(&got) == p.reference_exec.as_ref() => {
                    v.insert("runtime.stack_exec_ms_x1", ms);
                }
                Ok(_) => out.fail(format!("{}/x1 on stack: outputs differ", p.name)),
                Err(e) => out.fail(format!("{}/x1 on stack: {e}", p.name)),
            }
        }
        for (config, c) in Config::ALL.iter().zip(cell) {
            out.samples
                .push((format!("{}/{}", p.name, config.name()), c.len()));
        }
        out.programs.push((p.name.to_string(), v));
    }
    out.whole
        .insert("runtime.heap_cache_hit_ratio", ratio(hits, hits + misses));
    out
}
