//! Deterministic multicore schedule simulator.
//!
//! The paper's speedups were measured on an 8-core Opteron. This
//! reproduction may run on hosts with fewer physical cores (CI containers
//! are often single-core), where wall-clock "parallel" timing measures
//! time-slicing artifacts instead of the transformation. The simulator
//! replaces the physical testbed: it replays each candidate loop's
//! *measured per-iteration instruction costs* — the exact
//! [`IterCost`]s of the VM's loop record ([`dse_runtime::Vm::profile`],
//! the same record `dsec profile` prints), taken from a single-threaded
//! run — through the executor's exact scheduling policies:
//!
//! * **DOALL** — the executor's own claim policy, not a model of it: each
//!   worker, earliest-free first, runs whatever
//!   [`dse_runtime::pool::DoallShares::claim`] hands it (front chunks of
//!   its own share, then the stolen back half of a victim's) until that
//!   returns `None`; the loop ends when the last worker finishes (a
//!   barrier).
//! * **DOACROSS** — dynamic self-scheduling with chunk size 1: each
//!   iteration goes to the earliest-free worker, its ordered window may
//!   only start after the previous iteration's window ended (post/wait).
//!
//! The model captures exactly the effects the paper discusses — pipeline
//! stalls from wide ordered sections (256.bzip2, 456.hmmer), load
//! imbalance, and serial fractions — but *not* cache or memory-bandwidth
//! contention (the paper attributes the 470.lbm and mpeg2-decoder plateaus
//! to those; see EXPERIMENTS.md).

use dse_ir::loops::ParMode;
use dse_runtime::pool::DoallShares;
use dse_runtime::{IterCost, LoopProfile};

/// Cost of one iteration in simulated cycles, split at the ordered-window
/// boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimIter {
    /// Cost before the ordered window.
    pub pre: f64,
    /// Cost inside the ordered window.
    pub window: f64,
    /// Cost after the window.
    pub post: f64,
}

impl SimIter {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.pre + self.window + self.post
    }
}

/// Converts a measured [`IterCost`] to simulated cycles. `charge_localize`
/// charges the runtime-privatization monitoring its modeled native cost
/// (lookup ≈ 20 cycles per monitored access — heap translations *and*
/// statically privatized accesses, per SpiceC's "all memory accesses are
/// monitored" — plus copy ≈ 0.25 cycles/byte), spread proportionally over
/// the iteration's segments.
pub fn to_sim_iter(c: &IterCost, charge_localize: bool) -> SimIter {
    let t = (c.pre + c.window + c.post) as f64;
    let extra = if charge_localize {
        20.0 * (c.localize_calls + c.private_direct) as f64 + 0.25 * c.localize_bytes as f64
    } else {
        0.0
    };
    let factor = if t > 0.0 { (t + extra) / t } else { 1.0 };
    SimIter {
        pre: c.pre as f64 * factor,
        window: c.window as f64 * factor,
        post: c.post as f64 * factor,
    }
}

/// Outcome of simulating one dynamic loop entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOutcome {
    /// Wall time of the loop entry (cycles): all workers joined.
    pub time: f64,
    /// Sum of busy cycles across workers.
    pub busy: f64,
    /// Sum of idle/waiting cycles across workers (`n * time - busy`).
    pub idle: f64,
}

/// The earliest-free worker among `workers` (lowest id on ties).
fn earliest_free(free: &[f64], workers: impl IntoIterator<Item = usize>) -> usize {
    workers
        .into_iter()
        .min_by(|&a, &b| free[a].partial_cmp(&free[b]).expect("finite"))
        .expect("at least one worker")
}

/// Simulates one loop entry under the executor's scheduling policy
/// (DOACROSS claims one iteration at a time, as the executor does).
pub fn simulate_entry(mode: ParMode, iters: &[SimIter], n: u32) -> SimOutcome {
    simulate_entry_chunked(mode, iters, n, 1)
}

/// Like [`simulate_entry`], with a configurable DOACROSS claim size (the
/// paper uses chunk = 1; `figures -- ablation-chunk` sweeps this).
pub fn simulate_entry_chunked(
    mode: ParMode,
    iters: &[SimIter],
    n: u32,
    chunk: usize,
) -> SimOutcome {
    let n = n.max(1) as usize;
    let chunk = chunk.max(1);
    if iters.is_empty() {
        return SimOutcome::default();
    }
    let mut free = vec![0.0f64; n];
    let time = match mode {
        ParMode::DoAll => {
            // Replay of `exec.rs::doall_stealing`: a worker claims when it
            // falls free and leaves the loop on its first `None`.
            let shares = DoallShares::new(0, iters.len() as i64, n as u32);
            let mut claiming: Vec<usize> = (0..n).collect();
            while !claiming.is_empty() {
                let w = earliest_free(&free, claiming.iter().copied());
                match shares.claim(w as u32) {
                    Some(c) => {
                        let claimed = &iters[c.lo as usize..c.hi as usize];
                        free[w] += claimed.iter().map(SimIter::total).sum::<f64>();
                    }
                    None => claiming.retain(|&x| x != w),
                }
            }
            free.iter().copied().fold(0.0, f64::max)
        }
        ParMode::DoAcross => {
            // Dynamic in-order assignment of `chunk` consecutive iterations
            // to the earliest-free worker; each iteration's ordered window
            // starts no earlier than the previous iteration's window end.
            let mut prev_window_end = 0.0f64;
            let mut end_time = 0.0f64;
            let mut next = 0usize;
            while next < iters.len() {
                let w = earliest_free(&free, 0..n);
                let mut cursor = free[w];
                for it in &iters[next..(next + chunk).min(iters.len())] {
                    let window_start = (cursor + it.pre).max(prev_window_end);
                    let window_end = window_start + it.window;
                    cursor = window_end + it.post;
                    prev_window_end = window_end;
                }
                free[w] = cursor;
                end_time = end_time.max(cursor);
                next += chunk;
            }
            end_time
        }
    };
    let busy: f64 = iters.iter().map(SimIter::total).sum();
    SimOutcome {
        time,
        busy,
        idle: n as f64 * time - busy,
    }
}

/// A full-program simulation at one core count.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramSim {
    /// Simulated program time (cycles).
    pub total_time: f64,
    /// Simulated time inside candidate loops.
    pub loop_time: f64,
    /// Serial (measured) time inside candidate loops.
    pub loop_serial: f64,
    /// Aggregate worker busy cycles inside loops.
    pub busy: f64,
    /// Aggregate worker idle cycles inside loops.
    pub idle: f64,
}

/// Instructions the recorded iterations of `profile` retired: everything
/// a simulation replays, as opposed to the serial remainder around it.
pub fn recorded_instructions(profile: &[LoopProfile]) -> u64 {
    let costs = profile.iter().flat_map(|p| p.costs.iter().flatten());
    costs.map(IterCost::total).sum()
}

/// Simulates a program at `n` cores from (a) its serial instruction total
/// and (b) the loop record of a single-threaded run: one cost vector per
/// dynamic entry of each candidate loop.
///
/// `loop_modes` gives the scheduling mode per loop id.
pub fn simulate_program(
    serial_total: u64,
    profile: &[LoopProfile],
    loop_modes: &std::collections::HashMap<u32, ParMode>,
    n: u32,
    charge_localize: bool,
) -> ProgramSim {
    let mut loop_serial = 0.0;
    let mut loop_time = 0.0;
    let mut busy = 0.0;
    let mut idle = 0.0;
    for p in profile {
        let mode = loop_modes
            .get(&p.loop_id)
            .copied()
            .unwrap_or(ParMode::DoAll);
        for entry in &p.costs {
            let iters: Vec<SimIter> = entry
                .iter()
                .map(|c| to_sim_iter(c, charge_localize))
                .collect();
            let serial: f64 = iters.iter().map(SimIter::total).sum();
            let out = simulate_entry(mode, &iters, n);
            loop_serial += serial;
            loop_time += out.time;
            busy += out.busy;
            idle += out.idle;
        }
    }
    // Outside the loops the program runs serially; charge localize extras
    // only inside loops (that is where private accesses live).
    let outside = serial_total as f64 - recorded_instructions(profile) as f64;
    ProgramSim {
        total_time: outside.max(0.0) + loop_time,
        loop_time,
        loop_serial,
        busy,
        idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iters(costs: &[(u64, u64, u64)]) -> Vec<SimIter> {
        costs
            .iter()
            .map(|&(pre, window, post)| SimIter {
                pre: pre as f64,
                window: window as f64,
                post: post as f64,
            })
            .collect()
    }

    #[test]
    fn doall_perfect_balance_scales_linearly() {
        let it = iters(&[(100, 0, 0); 8]);
        let s1 = simulate_entry(ParMode::DoAll, &it, 1);
        let s8 = simulate_entry(ParMode::DoAll, &it, 8);
        assert_eq!(s1.time, 800.0);
        assert_eq!(s8.time, 100.0);
        assert_eq!(s8.idle, 0.0);
    }

    #[test]
    fn doall_imbalance_bounded_by_largest_chunk() {
        // 9 iterations on 8 workers: one worker gets 2 (ceil chunks).
        let it = iters(&vec![(100, 0, 0); 9]);
        let s8 = simulate_entry(ParMode::DoAll, &it, 8);
        assert_eq!(s8.time, 200.0);
    }

    #[test]
    fn doacross_full_window_serializes() {
        // Whole body ordered: no overlap possible.
        let it = iters(&vec![(0, 100, 0); 10]);
        let s = simulate_entry(ParMode::DoAcross, &it, 8);
        assert_eq!(s.time, 1000.0);
        assert!(s.idle > 0.0);
    }

    #[test]
    fn doacross_small_window_pipelines() {
        // 90% parallel work, 10% ordered tail: near-linear at small n.
        let it = iters(&vec![(90, 10, 0); 64]);
        let s1 = simulate_entry(ParMode::DoAcross, &it, 1);
        let s4 = simulate_entry(ParMode::DoAcross, &it, 4);
        let sp = s1.time / s4.time;
        assert!(sp > 3.0, "expected near-linear, got {sp:.2}");
        // But never better than the ordered-section bound.
        let s64 = simulate_entry(ParMode::DoAcross, &it, 64);
        assert!(s1.time / s64.time <= 10.01);
    }

    #[test]
    fn doacross_respects_order_even_with_uneven_iterations() {
        let it = iters(&[(0, 50, 0), (0, 5, 0), (0, 5, 0)]);
        let s = simulate_entry(ParMode::DoAcross, &it, 4);
        // Iterations 2 and 3 wait for 1's window: 50 + 5 + 5.
        assert_eq!(s.time, 60.0);
    }

    #[test]
    fn localize_charging_inflates_cost() {
        let c = IterCost {
            pre: 100,
            window: 0,
            post: 0,
            localize_calls: 10,
            localize_bytes: 400,
            private_direct: 0,
        };
        let plain = to_sim_iter(&c, false);
        let charged = to_sim_iter(&c, true);
        assert_eq!(plain.total(), 100.0);
        assert_eq!(charged.total(), 100.0 + 200.0 + 100.0);
    }

    #[test]
    fn program_sim_accounts_serial_remainder() {
        let profile = [LoopProfile {
            loop_id: 0,
            costs: vec![vec![
                IterCost {
                    pre: 100,
                    ..Default::default()
                };
                4
            ]],
            ..Default::default()
        }];
        let mut modes = std::collections::HashMap::new();
        modes.insert(0u32, ParMode::DoAll);
        let sim = simulate_program(1000, &profile, &modes, 4, false);
        // 600 serial outside + 100 parallel loop.
        assert_eq!(sim.total_time, 700.0);
        assert_eq!(sim.loop_serial, 400.0);
    }
}
