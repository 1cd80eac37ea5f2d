//! The paper's motivating benchmark: MiBench dijkstra.
//!
//! ```text
//! cargo run --release --example dijkstra_paths
//! ```
//!
//! Each loop iteration finds one shortest path, rebuilding a linked-list
//! priority queue and per-search annotation arrays. Those structures have
//! no single address range — exactly the case traditional array
//! privatization cannot handle. This example walks the whole pipeline and
//! prints what the pass discovered, then compares the simulated multicore
//! schedule against the serial run.

use dse_bench::sim;
use dse_core::{Analysis, OptLevel};
use dse_depprof::DepKind;
use dse_runtime::Vm;
use dse_workloads::{by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = by_name("dijkstra").expect("bundled workload");
    let analysis = Analysis::from_source(w.source, w.vm_config(Scale::Profile))?;

    // The dependence profile of the pair loop.
    let ddg = analysis.profile.by_label("main_loop").expect("profiled");
    println!(
        "profiled {} iterations, {} access sites, {} dependence edges",
        ddg.iterations,
        ddg.site_counts.len(),
        ddg.edges.len()
    );
    let carried_anti_out = ddg
        .sites_in_carried(&[DepKind::Anti, DepKind::Output])
        .len();
    println!("sites in loop-carried anti/output dependences: {carried_anti_out}");

    let cls = analysis.classification("main_loop").expect("classified");
    println!(
        "classification: {:?}, {} private sites",
        cls.mode,
        cls.private_sites().count()
    );

    // Expand for 8 threads and check equivalence.
    let t = analysis.transform(OptLevel::Full, 8)?;
    println!(
        "expanded {} structures (+{} scalars), promoted {} pointer type(s)",
        t.report.privatized_structures(),
        t.report.expanded_scalar_locals,
        t.report.fat_pointer_types
    );
    let mut serial = Vm::new(analysis.serial.clone(), w.vm_config(Scale::Profile))?;
    let serial_report = serial.run()?;
    let mut cfg = w.vm_config(Scale::Profile);
    cfg.nthreads = 8;
    let mut par = Vm::new(t.parallel.clone(), cfg)?;
    par.run()?;
    assert_eq!(serial.outputs_int(), par.outputs_int());
    println!(
        "8-thread total path cost matches serial: {:?}",
        par.outputs_int()
    );

    // Simulate the 8-core schedule from measured per-iteration costs.
    let mut cfg = w.vm_config(Scale::Profile);
    cfg.profile = true;
    let mut tracer = Vm::new(t.parallel.clone(), cfg)?;
    let report = tracer.run()?;
    let modes = t
        .parallel
        .loops
        .iter()
        .enumerate()
        .map(|(i, l)| (i as u32, l.mode.unwrap_or(dse_ir::loops::ParMode::DoAll)))
        .collect();
    let ps = sim::simulate_program(report.counters.work, &tracer.profile(), &modes, 8, false);
    println!(
        "simulated 8-core speedup: {:.2}x (loop-only {:.2}x)",
        serial_report.counters.work as f64 / ps.total_time,
        ps.loop_serial / ps.loop_time
    );
    Ok(())
}
