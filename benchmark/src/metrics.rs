//! The metric tables: every name this benchmark reports, with its unit,
//! direction, how per-program rows roll up to the workload value, and the
//! bound `--compare` holds it to. `/BENCHMARK.json` lists the same names
//! (a unit test keeps the two in step).

use crate::stats;
use std::collections::BTreeMap;

/// Named values of one program or one workload.
pub type Values = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How per-program rows become the workload value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Geometric mean over the programs that report the metric.
    Geomean,
    /// Sum over programs (counts).
    Sum,
    /// Computed for the workload as a whole; programs carry no row.
    Whole,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub agg: Agg,
    /// Share of the base by which the metric may worsen before `--compare`
    /// says `worse`; `None` for metrics that only explain others.
    pub bound: Option<f64>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    agg: Agg,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        agg,
        bound,
    }
}

use Agg::{Geomean, Sum, Whole};
use Better::{Higher, Lower};

/// Bound of every timing and rate.
const TIMING: Option<f64> = Some(0.10);
/// Bound of the two metrics that need both cores at once. On the 2-vCPU
/// host they follow the hypervisor, not the code: `speedup_t2` on
/// `doall_exec` read 0.47-0.53 in some sets and 0.83-0.94 in others of the
/// same build (README.md, "Measured spread"). This is that max / min - 1,
/// rounded up to the next 0.05.
const T2: Option<f64> = Some(1.0);
/// Counts that must repeat exactly.
const EXACT: Option<f64> = Some(0.0);

/// What a user of the system sees, defined on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, Whole, Some(0.25)),
    m("op_ms_min", "ms", Lower, Geomean, TIMING),
    m("peak_rss_mib", "MiB", Lower, Whole, TIMING),
];

/// Workload-specific results (the paper's axes, cold compile, daemon
/// latency) and the per-layer ledger. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Results of one workload family, measured with tracing off.
    m("fail_share", "ratio", Lower, Whole, EXACT),
    m("orig_run_ms", "ms", Lower, Geomean, TIMING),
    m("xform_t2_run_ms", "ms", Lower, Geomean, T2),
    m("seq_overhead", "ratio", Lower, Geomean, TIMING),
    m("seq_overhead_instr", "ratio", Lower, Geomean, EXACT),
    m("speedup_t2", "ratio", Higher, Geomean, T2),
    m("mem_multiple_t2", "ratio", Lower, Geomean, TIMING),
    m("compile_ms_p50", "ms", Lower, Geomean, TIMING),
    m("compile_programs_per_s", "1/s", Higher, Whole, TIMING),
    m("request_ms_p50", "ms", Lower, Whole, TIMING),
    m("request_ms_p99", "ms", Lower, Whole, TIMING),
    m("requests_per_s", "1/s", Higher, Whole, TIMING),
    // lang
    m("lang.parse_ms", "ms", Lower, Geomean, None),
    m("lang.source_bytes", "bytes", Lower, Sum, None),
    m("lang.ast_print_ms", "ms", Lower, Geomean, None),
    // ir
    m("ir.lower_ms", "ms", Lower, Geomean, None),
    m("ir.stack_instrs", "count", Lower, Sum, None),
    m("ir.reglower_ms", "ms", Lower, Geomean, None),
    m("ir.reg_instrs", "count", Lower, Sum, None),
    m("ir.reg_per_stack_instr", "ratio", Lower, Geomean, None),
    m("ir.disasm_ms", "ms", Lower, Geomean, None),
    // depprof
    m("depprof.profile_ms", "ms", Lower, Geomean, None),
    m("depprof.iterations", "count", Lower, Sum, None),
    m("depprof.accesses", "count", Lower, Sum, None),
    m("depprof.edges", "count", Lower, Sum, None),
    m("depprof.accesses_per_ms", "1/ms", Higher, Geomean, None),
    // analysis
    m("analysis.points_to_ms", "ms", Lower, Geomean, None),
    m("analysis.alloc_size_ms", "ms", Lower, Geomean, None),
    // core
    m("core.classify_ms", "ms", Lower, Geomean, None),
    m("core.plan_ms", "ms", Lower, Geomean, None),
    m("core.xform_ms", "ms", Lower, Geomean, None),
    m("core.structures_expanded", "count", Lower, Sum, None),
    m("core.fat_pointer_types", "count", Lower, Sum, None),
    m("core.span_stores_emitted", "count", Lower, Sum, None),
    m("core.span_stores_elided", "count", Higher, Sum, None),
    m(
        "core.private_accesses_redirected",
        "count",
        Lower,
        Sum,
        None,
    ),
    m("core.cache_overhead_ms", "ms", Lower, Geomean, None),
    m("core.cache_hit_ratio", "ratio", Higher, Whole, None),
    m("core.cache_dedups", "count", Higher, Whole, None),
    m("core.cache_evictions", "count", Lower, Whole, None),
    // verify
    m("verify.check_ms", "ms", Lower, Geomean, None),
    m("verify.regverify_ms", "ms", Lower, Geomean, None),
    m("verify.diagnostics", "count", Lower, Sum, None),
    // runtime
    m("runtime.vm_build_ms", "ms", Lower, Geomean, None),
    m("runtime.exec_ms_orig", "ms", Lower, Geomean, None),
    m("runtime.exec_ms_x1", "ms", Lower, Geomean, None),
    m("runtime.exec_ms_x2", "ms", Lower, Geomean, None),
    m("runtime.instrs_orig", "count", Lower, Sum, None),
    m("runtime.instrs_x1", "count", Lower, Sum, None),
    m("runtime.instrs_x2", "count", Lower, Sum, None),
    m("runtime.minstr_per_s_x1", "M/s", Higher, Geomean, None),
    m(
        "runtime.parallel_efficiency_t2",
        "ratio",
        Higher,
        Geomean,
        None,
    ),
    m("runtime.work_imbalance_t2", "ratio", Lower, Geomean, None),
    m("runtime.pool_dispatches", "count", Lower, Sum, None),
    m("runtime.pool_steals", "count", Lower, Sum, None),
    m("runtime.pool_parks", "count", Lower, Sum, None),
    m("runtime.pool_wakeups", "count", Lower, Sum, None),
    m("runtime.wait_spins_t2", "count", Lower, Sum, None),
    m("runtime.wait_yields_t2", "count", Lower, Sum, None),
    m("runtime.sync_ops_t2", "count", Lower, Sum, None),
    m("runtime.heap_cache_hits", "count", Higher, Sum, None),
    m("runtime.heap_cache_misses", "count", Lower, Sum, None),
    m("runtime.heap_backend_locks", "count", Lower, Sum, None),
    m("runtime.heap_cache_hit_ratio", "ratio", Higher, Whole, None),
    m("runtime.peak_heap_bytes_orig", "bytes", Lower, Sum, None),
    m("runtime.peak_heap_bytes_x2", "bytes", Lower, Sum, None),
    m("runtime.stack_exec_ms_orig", "ms", Lower, Geomean, None),
    m("runtime.stack_exec_ms_x1", "ms", Lower, Geomean, None),
    // server
    m("server.handle_ms_run_warm", "ms", Lower, Whole, None),
    m("server.handle_ms_compile_warm", "ms", Lower, Whole, None),
    m("server.handle_ms_check_edit", "ms", Lower, Whole, None),
    m("server.handle_ms_run_miss", "ms", Lower, Whole, None),
    m("server.phase_ms_total", "ms", Lower, Whole, None),
    m("server.nonphase_ms", "ms", Lower, Whole, None),
    m("server.failures", "count", Lower, Whole, None),
    // the traced pass itself
    m("trace_overhead", "ratio", Lower, Whole, None),
    m("ledger_residual_share", "ratio", Lower, Whole, None),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Rolls per-program rows up into workload values by each metric's rule.
/// `whole` holds the values computed for the workload directly; they win
/// over the rule (the daemon pools its requests instead of averaging
/// programs).
pub fn roll_up(table: &[Metric], programs: &[(String, Values)], whole: &Values) -> Values {
    table
        .iter()
        .map(|m| {
            let rows: Vec<f64> = programs
                .iter()
                .filter_map(|(_, v)| v.get(m.name).copied())
                .collect();
            let value = match (whole.get(m.name), m.agg) {
                (Some(&v), _) => v,
                (None, Whole) => 0.0,
                (None, Sum) => rows.iter().fold(0.0, |a, b| a + b),
                (None, Geomean) => stats::geomean(&rows),
            };
            (m.name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_telemetry::Json;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                let better = if m.better == Lower { "lower" } else { "higher" };
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    m.name
                );
                if key == "end_to_end" {
                    assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
                }
            }
        }
        assert!(PER_LAYER.len() <= 128);
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<_> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
    }

    #[test]
    fn roll_up_applies_each_rule() {
        let rows = vec![
            (
                "a".to_string(),
                Values::from([("op_ms_min", 2.0), ("ir.stack_instrs", 10.0)]),
            ),
            (
                "b".to_string(),
                Values::from([("op_ms_min", 8.0), ("ir.stack_instrs", 5.0)]),
            ),
        ];
        let whole = Values::from([("setup_s", 1.5)]);
        let e = roll_up(END_TO_END, &rows, &whole);
        assert!((e["op_ms_min"] - 4.0).abs() < 1e-12);
        assert_eq!(e["setup_s"], 1.5);
        assert_eq!(e["peak_rss_mib"], 0.0);
        assert_eq!(roll_up(PER_LAYER, &rows, &whole)["ir.stack_instrs"], 15.0);
    }
}
