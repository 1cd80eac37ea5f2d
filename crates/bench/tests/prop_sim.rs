//! Randomized bounds on the schedule simulator: whatever the iteration
//! costs, simulated times respect the work and critical-path laws of the
//! scheduling policies. Cases come from the workspace's deterministic
//! PRNG, so failures reproduce exactly.

use dse_bench::sim::{simulate_entry, simulate_entry_chunked, SimIter};
use dse_ir::loops::ParMode;
use dse_runtime::pool::DoallShares;
use dse_workloads::rng::Rng;

const CASES: u64 = 256;

fn gen_iters(rng: &mut Rng, max: i64) -> Vec<SimIter> {
    (0..rng.gen_range(1, max))
        .map(|_| SimIter {
            pre: rng.gen_range(0, 500) as f64,
            window: rng.gen_range(0, 500) as f64,
            post: rng.gen_range(0, 500) as f64,
        })
        .collect()
}

/// Work law and single-core identity: busy/n <= time(n) <= time(1),
/// and time(1) equals the serial sum.
#[test]
fn work_and_serial_bounds() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x51_B0 + case);
        let iters = gen_iters(&mut rng, 40);
        let n = rng.gen_range(1, 16) as u32;
        let mode = if rng.gen_bool() {
            ParMode::DoAll
        } else {
            ParMode::DoAcross
        };
        let serial: f64 = iters.iter().map(SimIter::total).sum();
        let s1 = simulate_entry(mode, &iters, 1);
        assert!((s1.time - serial).abs() < 1e-6, "case {case}");
        let sn = simulate_entry(mode, &iters, n);
        assert!(
            sn.time <= s1.time + 1e-6,
            "case {case}: {} > {}",
            sn.time,
            s1.time
        );
        assert!(
            sn.time * n as f64 + 1e-6 >= serial,
            "case {case}: work law violated: {} * {} < {}",
            sn.time,
            n,
            serial
        );
        // Idle accounting is exact.
        assert!((sn.busy - serial).abs() < 1e-6, "case {case}");
        assert!(
            (sn.idle - (n as f64 * sn.time - serial)).abs() < 1e-3,
            "case {case}"
        );
    }
}

/// DOACROSS critical path: the ordered windows execute in series, so
/// the loop can never be faster than their sum, nor faster than any
/// single iteration.
#[test]
fn doacross_window_law() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xD0AC + case);
        let iters = gen_iters(&mut rng, 40);
        let n = rng.gen_range(1, 16) as u32;
        let s = simulate_entry(ParMode::DoAcross, &iters, n);
        let windows: f64 = iters.iter().map(|i| i.window).sum();
        assert!(s.time + 1e-6 >= windows, "case {case}");
        let longest = iters.iter().map(SimIter::total).fold(0.0f64, f64::max);
        assert!(s.time + 1e-6 >= longest, "case {case}");
    }
}

/// DOALL under the executor's claim policy (`DoallShares::claim`, the
/// function `exec.rs` loops over): every iteration is claimed exactly
/// once for awkward `(m, n)`; the simulated makespan is bracketed by the
/// work law below and greedy claiming above; and uniform costs give
/// exactly `ceil(m/n) * c` — stealing never makes a balanced loop worse
/// than its static split, so Figure 11's balanced rows cannot move.
///
/// The upper bound carries one iteration more than the textbook greedy
/// bound: a thief leaves its victim one unstealable iteration, so the
/// last worker can finish a claimed chunk *and* that iteration after
/// every other worker has left the loop.
#[test]
fn doall_chunk_law() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xD0A1 + case);
        let iters = gen_iters(&mut rng, 200);
        let m = iters.len();
        let n = match case % 4 {
            0 => m as u32,     // one iteration per worker: the longest one
            1 => m as u32 + 3, // more workers than iterations
            _ => rng.gen_range(1, 17) as u32,
        };

        // Replay the claims the way `simulate_entry` does, recording them.
        let shares = DoallShares::new(0, m as i64, n);
        let mut free = vec![0.0f64; n as usize];
        let mut claiming: Vec<u32> = (0..n).collect();
        let mut seen = vec![0u32; m];
        let mut max_chunk = 0.0f64;
        while let Some(&w) = claiming.iter().min_by(|&&a, &&b| {
            free[a as usize]
                .partial_cmp(&free[b as usize])
                .expect("finite")
        }) {
            let Some(c) = shares.claim(w) else {
                claiming.retain(|&x| x != w);
                continue;
            };
            let claimed = c.lo as usize..c.hi as usize;
            claimed.clone().for_each(|i| seen[i] += 1);
            let cost: f64 = iters[claimed].iter().map(SimIter::total).sum();
            max_chunk = max_chunk.max(cost);
            free[w as usize] += cost;
        }
        assert!(
            seen.iter().all(|&k| k == 1),
            "case {case}: m={m} n={n}: claims {seen:?}"
        );

        let s = simulate_entry(ParMode::DoAll, &iters, n);
        let makespan = free.iter().copied().fold(0.0, f64::max);
        assert_eq!(
            s.time, makespan,
            "case {case}: simulate_entry is this replay"
        );
        let busy: f64 = iters.iter().map(SimIter::total).sum();
        let longest = iters.iter().map(SimIter::total).fold(0.0f64, f64::max);
        let floor = busy / n as f64;
        assert!(
            floor - 1e-6 <= s.time && s.time <= floor + max_chunk + longest + 1e-6,
            "case {case}: m={m} n={n}: {} outside [{floor}, {floor} + {max_chunk} + {longest}]",
            s.time
        );
        if n as usize >= m {
            assert!((s.time - longest).abs() < 1e-6, "case {case}: m={m} n={n}");
        }

        let c = 1.0 + (case % 7) as f64;
        let uniform = vec![
            SimIter {
                pre: c,
                ..Default::default()
            };
            m
        ];
        let want = m.div_ceil(n as usize) as f64 * c;
        let got = simulate_entry(ParMode::DoAll, &uniform, n).time;
        assert_eq!(got, want, "case {case}: m={m} n={n} c={c}");
    }
}

/// Chunked DOACROSS degrades gracefully: chunk = m is fully serial.
#[test]
fn chunked_extremes() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x000C_44E7 + case);
        let iters = gen_iters(&mut rng, 32);
        let n = rng.gen_range(2, 8) as u32;
        let serial: f64 = iters.iter().map(SimIter::total).sum();
        let all = simulate_entry_chunked(ParMode::DoAcross, &iters, n, iters.len());
        assert!(
            (all.time - serial).abs() < 1e-6,
            "case {case}: one chunk = serial"
        );
        let c1 = simulate_entry_chunked(ParMode::DoAcross, &iters, n, 1);
        assert!(c1.time <= all.time + 1e-6, "case {case}");
    }
}
