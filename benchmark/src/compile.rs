//! `compile_cold`: all eight programs, source to verified regcode through
//! the cached pipeline on a fresh store each time, profile-size inputs.
//! The traced pass also repeats the direct phase calls of set-up, so each
//! layer's time is sampled as often as the pipeline it explains.

use crate::metrics::Values;
use crate::programs::{compile_direct, vm_config, Program};
use crate::stats::{self, median, ratio};
use crate::trace::Tracer;
use crate::{Budget, Pass};
use dse_core::phases::code_fingerprint;
use dse_core::{ArtifactStore, OptLevel, Pipeline, Trace};
use dse_telemetry::{ContentHash, ContentHasher};
use dse_verify::diag::Severity;
use std::collections::BTreeMap;

/// The direct phase calls other than the profile run. What the cached
/// pipeline takes beyond the phase calls is its overhead, and the
/// renderings it hashes for content keys (`FINGERPRINTS`) should explain
/// that overhead. Both sides leave the profile run out: it is ~95% of a
/// compile and its run-to-run noise (a few ms) would swamp a ~1 ms
/// difference, so the cached side subtracts the profile phase's own wall
/// time as the store reports it, operation by operation.
const PHASE_CALLS: [&str; 10] = [
    "lang.parse_ms",
    "ir.lower_ms",
    "core.classify_ms",
    "analysis.points_to_ms",
    "analysis.alloc_size_ms",
    "core.plan_ms",
    "core.xform_ms",
    "verify.check_ms",
    "ir.reglower_ms",
    "verify.regverify_ms",
];
const FINGERPRINTS: [&str; 3] = ["lang.ast_print_ms", "ir.disasm_ms", "depprof.summary_ms"];

/// The key the pipeline gives the register translation of the program
/// set-up compiled: equal keys mean byte-equal disassembly.
fn expected_key(p: &Program) -> ContentHash {
    ContentHasher::new("reglower")
        .hash(code_fingerprint(&p.compiled.x2.parallel))
        .finish()
}

/// One cold compile through `Pipeline` on a fresh store. Checks that both
/// verifiers are clean and that the result is the program set-up validated.
/// Returns the operation's wall time and the part of it outside the
/// profile phase (ms).
fn cached_compile(p: &Program, want: ContentHash, tr: &mut Tracer) -> Result<(f64, f64), String> {
    let (res, op_ms) = tr.op("compile.cached", p.name, "cached", |tr| {
        let store = ArtifactStore::new();
        let pipeline = Pipeline::new(&store);
        let mut trace = Trace::new();
        let cfg = vm_config(&p.profile_inputs, 1);
        let started_ns = tr.open_start_ns();
        let res = (|| {
            let art = pipeline
                .analyze(p.source, &cfg, &mut trace)
                .map_err(|e| e.to_string())?;
            let t = pipeline
                .transform(&art, OptLevel::Full, 2, false, &mut trace)
                .map_err(|e| e.to_string())?;
            let check = dse_verify::check_cached(&store, &art.analysis, &t, &mut trace);
            let parallel = &t.transformed.parallel;
            let reg = pipeline
                .reglower(parallel, &mut trace)
                .map_err(|e| e.to_string())?;
            let backend = dse_verify::check_backend_cached(&store, parallel, &reg, &mut trace);
            let errors = check.count(Severity::Error) + backend.count(Severity::Error);
            if errors > 0 {
                return Err(format!("{errors} verifier error(s)"));
            }
            if reg.key != want {
                return Err("compiled code differs from the validated compile".to_string());
            }
            Ok(())
        })();
        // The store timed each phase itself, as an offset from its own
        // creation, which is this operation's start to within microseconds.
        let mut profile_ms = 0.0;
        for ph in &trace {
            let at = started_ns + ph.at.as_nanos() as u64;
            tr.child_interval(ph.phase, at, ph.wall.as_nanos() as u64);
            if ph.phase == "profile" {
                profile_ms = ph.wall.as_secs_f64() * 1e3;
            }
        }
        res.map(|()| profile_ms)
    });
    res.map(|profile_ms| (op_ms, op_ms - profile_ms))
        .map_err(|e| format!("{}: {e}", p.name))
}

/// One timed region over `programs`.
pub fn pass(programs: &[Program], budget: Budget, tr: &mut Tracer) -> Pass {
    let mut out = Pass::default();
    let keys: Vec<ContentHash> = programs.iter().map(expected_key).collect();
    let mut cached: Vec<Vec<(f64, f64)>> = vec![Vec::new(); programs.len()];
    let mut direct: Vec<BTreeMap<&'static str, Vec<f64>>> = vec![BTreeMap::new(); programs.len()];
    let clock = budget.start();
    'rounds: for round in 0.. {
        for (pi, p) in programs.iter().enumerate() {
            if clock.done(round) {
                break 'rounds;
            }
            out.attempted += 1;
            match cached_compile(p, keys[pi], tr) {
                Ok(ms) => cached[pi].push(ms),
                Err(e) => out.fail(e),
            }
            if tr.enabled() {
                out.attempted += 1;
                match compile_direct(p.name, p.source, &p.profile_inputs, tr) {
                    Ok(c) if c.counts == p.compiled.counts => {
                        for (k, ms) in c.times {
                            direct[pi].entry(k).or_default().push(ms);
                        }
                    }
                    Ok(_) => out.fail(format!("{}: counts differ from set-up's", p.name)),
                    Err(e) => out.fail(e),
                }
            }
        }
    }
    let elapsed_s = clock.elapsed_s();
    let compiles: usize = cached.iter().map(Vec::len).sum();
    out.whole
        .insert("compile_programs_per_s", ratio(compiles as f64, elapsed_s));

    for ((p, cached), direct) in programs.iter().zip(&cached).zip(&direct) {
        if cached.is_empty() {
            continue;
        }
        let mut v = Values::new();
        let cached_ms = median(&cached.iter().map(|c| c.0).collect::<Vec<_>>());
        let outside_profile_ms = median(&cached.iter().map(|c| c.1).collect::<Vec<_>>());
        v.insert(
            "op_ms_min",
            stats::min(&cached.iter().map(|c| c.0).collect::<Vec<_>>()),
        );
        v.insert("compile_ms_p50", cached_ms);
        // Layer times: this pass's direct compiles if it made any, else
        // the ones set-up took.
        let layer = |k: &str| direct.get(k).map_or(p.values[k], |s| median(s));
        for &k in p.compiled.times.keys() {
            v.insert(k, layer(k));
        }
        let phases: f64 = PHASE_CALLS.iter().map(|k| layer(k)).sum();
        let fingerprints: f64 = FINGERPRINTS.iter().map(|k| layer(k)).sum();
        let overhead = outside_profile_ms - phases + layer("depprof.summary_ms");
        v.insert("core.cache_overhead_ms", overhead);
        v.insert(
            "compile.unexplained_share",
            ratio((overhead - fingerprints).abs(), cached_ms),
        );
        out.samples.push((p.name.to_string(), cached.len()));
        out.programs.push((p.name.to_string(), v));
    }
    out
}
