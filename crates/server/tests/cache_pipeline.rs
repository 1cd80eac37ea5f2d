//! The content-addressed cache contract: key stability, whole-pipeline
//! reuse, early cutoff on edits, concurrent dedup, and the LRU bound.

use dse_core::{ArtifactStore, CacheOutcome, OptLevel, Pipeline, Trace};
use dse_runtime::VmConfig;
use dse_server::{Cmd, Request, Server, ServerConfig};
use std::sync::Arc;

/// A privatizable scratch fill plus an ordered accumulation (DOACROSS):
/// exercises every pipeline phase and verifies clean.
const PROG: &str = r#"
int main() {
  long *acc; acc = malloc(1 * sizeof(long));
  int *scratch; scratch = malloc(8 * sizeof(int));
  int *out; out = malloc(50 * sizeof(int));
  acc[0] = 0;
  #pragma candidate ordered
  for (int i = 0; i < 50; i++) {
    for (int k = 0; k < 8; k++) { scratch[k] = i * k + 3; }
    int s; s = 0;
    for (int k = 0; k < 8; k++) { s += scratch[k]; }
    acc[0] = acc[0] + s;
    out[i] = s;
  }
  out_long(acc[0]);
  free(acc); free(scratch); free(out);
  return 0;
}
"#;

/// `PROG` with a comment prepended: different source text, identical AST.
fn comment_edit() -> String {
    format!("// touched\n{PROG}")
}

/// `PROG` with the trip count changed: different everything downstream.
fn semantic_edit() -> String {
    PROG.replace("i < 50", "i < 51")
}

fn phase_names(trace: &Trace) -> Vec<&'static str> {
    trace.iter().map(|p| p.phase).collect()
}

fn outcome_of(trace: &Trace, phase: &str) -> CacheOutcome {
    trace
        .iter()
        .find(|p| p.phase == phase)
        .unwrap_or_else(|| panic!("phase `{phase}` missing from trace"))
        .outcome
}

/// Full drive through one store: analyze, transform, verify.
fn drive(store: &ArtifactStore, source: &str) -> Trace {
    let pipeline = Pipeline::new(store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(source, &VmConfig::default(), &mut trace)
        .expect("analyze");
    let t = pipeline
        .transform(&art, OptLevel::Full, 4, false, &mut trace)
        .expect("transform");
    dse_verify::check_cached(store, &art.analysis, &t, &mut trace);
    trace
}

#[test]
fn content_keys_are_stable_across_stores() {
    // Two independent stores (as two daemon processes would have) derive
    // identical keys for identical content — the keys are pure functions
    // of the artifacts, not of process state.
    let a = drive(&ArtifactStore::new(), PROG);
    let b = drive(&ArtifactStore::new(), PROG);
    assert_eq!(phase_names(&a), phase_names(&b));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.key, y.key, "key mismatch in phase `{}`", x.phase);
    }
}

#[test]
fn repeated_request_skips_every_phase() {
    let store = ArtifactStore::new();
    let cold = drive(&store, PROG);
    assert_eq!(
        phase_names(&cold),
        ["parse", "lower", "profile", "classify", "plan", "xform", "verify"]
    );
    assert!(cold.iter().all(|p| p.outcome == CacheOutcome::Miss));

    let warm = drive(&store, PROG);
    assert_eq!(phase_names(&warm), phase_names(&cold));
    for (p, computed) in warm.iter().zip(&cold) {
        assert_eq!(
            p.outcome,
            CacheOutcome::Hit,
            "phase `{}` recomputed on a repeated request",
            p.phase
        );
        // The record of a hit carries the stats the miss computed.
        assert!(!p.stats.is_empty(), "phase `{}` reports no stats", p.phase);
        assert_eq!(p.stats, computed.stats, "phase `{}`", p.phase);
    }
    // The store's counters tell the same story: one compute per phase.
    let stats = store.stats();
    for ph in &stats.phases {
        assert_eq!(ph.misses, 1, "phase `{}` computed more than once", ph.phase);
        assert_eq!(ph.hits, 1);
    }
}

#[test]
fn comment_edit_reruns_only_parse() {
    // Early cutoff: the edited source re-parses, rediscovers the same AST
    // hash, and every downstream phase — verify included — is a hit.
    let store = ArtifactStore::new();
    drive(&store, PROG);
    let edited = drive(&store, &comment_edit());
    assert_eq!(outcome_of(&edited, "parse"), CacheOutcome::Miss);
    for phase in ["lower", "profile", "classify", "plan", "xform", "verify"] {
        assert_eq!(
            outcome_of(&edited, phase),
            CacheOutcome::Hit,
            "phase `{phase}` should have been cut off"
        );
    }
}

#[test]
fn semantic_edit_reruns_every_phase() {
    let store = ArtifactStore::new();
    drive(&store, PROG);
    let edited = drive(&store, &semantic_edit());
    assert!(
        edited.iter().all(|p| p.outcome == CacheOutcome::Miss),
        "a trip-count change must invalidate every phase: {:?}",
        edited
            .iter()
            .map(|p| (p.phase, p.outcome.as_str()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn verify_report_is_cached_and_shared() {
    // Regression for the cached verify pass: same xform key, same report
    // object, no second verifier run.
    let store = ArtifactStore::new();
    let pipeline = Pipeline::new(&store);
    let mut trace = Trace::new();
    let art = pipeline
        .analyze(PROG, &VmConfig::default(), &mut trace)
        .unwrap();
    let t = pipeline
        .transform(&art, OptLevel::Full, 4, false, &mut trace)
        .unwrap();
    let first = dse_verify::check_cached(&store, &art.analysis, &t, &mut trace);
    let second = dse_verify::check_cached(&store, &art.analysis, &t, &mut trace);
    assert!(Arc::ptr_eq(&first, &second));
    let verify = store
        .stats()
        .phases
        .into_iter()
        .find(|p| p.phase == "verify")
        .unwrap();
    assert_eq!((verify.misses, verify.hits), (1, 1));
}

#[test]
fn concurrent_identical_requests_collapse_to_one_compute() {
    // Eight simultaneous submissions of the same program: the first to
    // arrive computes each phase, the rest park on the in-flight marker
    // (dedup) or hit the published artifact. Exactly one compute per phase.
    let server = Arc::new(Server::new(&ServerConfig {
        workers: 8,
        capacity: 64,
    }));
    let handles: Vec<_> = (0..8)
        .map(|n| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut req = Request::new(format!("c{n}"), Cmd::Run);
                req.source = Some(PROG.to_string());
                req.threads = 2;
                server.handle(&req)
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert!(resp.ok, "request failed: {:?}", resp.error);
        assert_eq!(resp.out_long, vec![35500]);
    }
    let stats = server.stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.failures, 0);
    for ph in &stats.phases {
        assert_eq!(
            ph.misses, 1,
            "phase `{}` computed {} times under concurrency",
            ph.phase, ph.misses
        );
        assert_eq!(ph.hits + ph.dedups, 7, "phase `{}`", ph.phase);
    }
}

#[test]
fn lru_eviction_keeps_the_store_bounded() {
    let store = ArtifactStore::with_capacity(6);
    let pipeline = Pipeline::new(&store);
    // Nine distinct trivial programs, four artifacts each: far beyond the
    // bound, so older artifacts must be evicted along the way.
    for n in 0..9 {
        let mut trace = Trace::new();
        let source = format!("int main() {{ out_long({n}); return 0; }}");
        pipeline
            .analyze(&source, &VmConfig::default(), &mut trace)
            .expect("analyze");
    }
    assert!(
        store.len() <= 6,
        "store holds {} artifacts, capacity 6",
        store.len()
    );
    let evictions: u64 = store.stats().phases.iter().map(|p| p.evictions).sum();
    assert!(evictions > 0, "expected evictions past the capacity bound");
}
