//! Seeded inputs: every program's input vector and the daemon request
//! mix derive from `--seed`; the programs receive only the generated
//! vectors. Size fields are fixed per [`Size`], so a seed changes the
//! *content* (graph weights, message seeds, model costs) and never the
//! amount of work, which keeps runs of different seeds comparable.

use dse_workloads::rng::Rng;

/// Which input shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `Scale::Profile` size fields: dependence profiling, `compile_cold`
    /// and every daemon request (the daemon profiles and runs on the same
    /// inputs).
    Profile,
    /// Timing sizes for the `*_exec` workloads: the `Scale::Bench` shape,
    /// adjusted so no single-threaded run takes much over 100 ms under the
    /// register backend while every original stays near or above the
    /// ~32 ms VM construction (originals run 26-66 ms, transformed-for-1
    /// 30-100 ms). Short operations matter twice on a shared host: a 20 s
    /// region collects more samples of every cell, and each sample is more
    /// likely to fall between two bursts of a neighbour's load (the bounded
    /// metric is the fastest sample). `dijkstra` pairs and `hmmer` reps and
    /// sequences are raised; the outermost repeat counts of `mpeg2enc`
    /// (rows), `mpeg2dec` (pictures) and `lbm` (steps) are cut. No
    /// candidate loop's trip count shrinks.
    Exec,
}

/// A per-program generator: the run seed mixed with the program name, so
/// programs draw independent streams and adding a program does not shift
/// the others.
fn program_rng(seed: u64, name: &str) -> Rng {
    let tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// The integer input vector of `program` for this seed and size.
///
/// # Panics
///
/// Panics on a program name outside the eight workload models.
pub fn program_inputs(program: &str, size: Size, seed: u64) -> Vec<i64> {
    let mut rng = program_rng(seed, program);
    let exec = size == Size::Exec;
    match program {
        "dijkstra" => {
            let (n, npairs) = if exec { (40, 120) } else { (10, 6) };
            let mut v = vec![n, npairs];
            for i in 0..n * n {
                // ~35% edges with weights 1..100, plus a ring so every
                // seed yields a connected graph (no pair is unreachable).
                let (from, to) = (i / n, i % n);
                let ring = to == (from + 1) % n;
                let w = if ring || rng.gen_ratio(35, 100) {
                    rng.gen_range(1, 100)
                } else {
                    0
                };
                v.push(w);
            }
            v
        }
        "md5" => {
            let (nmsg, nblocks) = if exec { (160, 6) } else { (4, 2) };
            let mut v = vec![nmsg, nblocks];
            v.extend((0..nmsg).map(|_| rng.gen_range(1, 0x7fff_ffff)));
            v
        }
        "mpeg2enc" => {
            let (frames, rows, cols, search) = if exec { (1, 2, 6, 5) } else { (1, 2, 2, 2) };
            vec![frames, rows, cols, search, rng.gen_range(1, 1 << 30)]
        }
        "mpeg2dec" => {
            let (pics, blocks) = if exec { (4, 330) } else { (2, 6) };
            let mut v = vec![pics, blocks, rng.gen_range(1, 1 << 30)];
            v.extend((0..64).map(|_| rng.gen_range(1, 32)));
            v
        }
        "h263enc" => {
            let (frames, nmb, search) = if exec { (3, 20, 6) } else { (1, 3, 2) };
            vec![frames, nmb, search, rng.gen_range(1, 1 << 30)]
        }
        "bzip2" => {
            let (streams, blocks, minblk, varblk) = if exec {
                (2, 90, 600, 500)
            } else {
                (1, 6, 40, 30)
            };
            vec![streams, blocks, minblk, varblk, rng.gen_range(1, 1 << 30)]
        }
        "hmmer" => {
            let (reps, nseq, maxlen, nstates) = if exec { (4, 120, 48, 12) } else { (1, 6, 8, 4) };
            let mut v = vec![reps, nseq, maxlen, nstates, rng.gen_range(1, 1 << 30)];
            v.extend((0..nstates * 3).map(|_| rng.gen_range(-8, 8)));
            v
        }
        "lbm" => {
            let (steps, cells) = if exec { (3, 4000) } else { (2, 24) };
            vec![steps, cells, rng.gen_range(1, 1 << 30)]
        }
        other => panic!("unknown program {other}"),
    }
}

/// The four request kinds of `daemon_mixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// `run` of an unedited program: every phase hits.
    RunWarm,
    /// `compile` of an unedited program: every phase hits, no VM.
    CompileWarm,
    /// `check` after a comment-only edit: re-parse, then early cutoff.
    CheckEdit,
    /// `run` after a semantic edit: every phase misses.
    RunMiss,
}

impl ReqKind {
    pub const ALL: [ReqKind; 4] = [
        ReqKind::RunWarm,
        ReqKind::CompileWarm,
        ReqKind::CheckEdit,
        ReqKind::RunMiss,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ReqKind::RunWarm => "run_warm",
            ReqKind::CompileWarm => "compile_warm",
            ReqKind::CheckEdit => "check_edit",
            ReqKind::RunMiss => "run_miss",
        }
    }
}

/// One planned daemon request: which kind, on which program, and the
/// unique id an edit embeds in the source.
#[derive(Debug, Clone, Copy)]
pub struct PlannedRequest {
    pub kind: ReqKind,
    pub program: usize,
    pub edit_id: u64,
}

/// Share of each request kind in the mix, in [`ReqKind::ALL`] order.
pub const MIX: [f64; 4] = [0.6, 0.2, 0.1, 0.1];

/// A request stream of the closed-loop client. It opens with one request
/// of every (kind, program) cell in seeded order, so every cell has a
/// sample however short the run; after that each request's kind is drawn
/// from [`MIX`] and, within a kind, the programs take turns, so the cells
/// keep filling evenly. Streams of one seed are independent of each other.
pub fn request_stream(seed: u64, stream: u64) -> impl Iterator<Item = PlannedRequest> {
    let mut rng = program_rng(seed, "daemon_mixed");
    for _ in 0..=stream {
        rng = Rng::seed_from_u64(rng.next_u64());
    }
    let nprograms = dse_workloads::all().len();
    let mut cover: Vec<(ReqKind, usize)> = ReqKind::ALL
        .into_iter()
        .flat_map(|kind| (0..nprograms).map(move |program| (kind, program)))
        .collect();
    for i in (1..cover.len()).rev() {
        cover.swap(i, rng.gen_index(i + 1));
    }
    let mut turn = [0usize; 4];
    std::iter::repeat_with(move || {
        let (kind, program) = cover.pop().unwrap_or_else(|| {
            let kind = match rng.gen_index(10) {
                0..=5 => ReqKind::RunWarm,
                6 | 7 => ReqKind::CompileWarm,
                8 => ReqKind::CheckEdit,
                _ => ReqKind::RunMiss,
            };
            let turn = &mut turn[kind as usize];
            *turn = (*turn + 1) % nprograms;
            (kind, *turn)
        });
        PlannedRequest {
            kind,
            program,
            edit_id: rng.next_u64(),
        }
    })
}

/// Length of the opening pass over every (kind, program) cell.
pub const COVER_REQUESTS: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_content_same_shape() {
        for w in dse_workloads::all() {
            for size in [Size::Profile, Size::Exec] {
                let a = program_inputs(w.name, size, 1);
                assert_eq!(a, program_inputs(w.name, size, 1), "{}", w.name);
                let b = program_inputs(w.name, size, 2);
                assert_ne!(a, b, "{}", w.name);
                assert_eq!(a.len(), b.len(), "{}", w.name);
            }
        }
    }

    #[test]
    fn profile_shape_matches_the_workload_crate() {
        // Size fields lead every vector; the seeded content follows them.
        let fields = [
            ("dijkstra", 2),
            ("md5", 2),
            ("mpeg2enc", 4),
            ("mpeg2dec", 2),
            ("h263enc", 3),
            ("bzip2", 4),
            ("hmmer", 4),
            ("lbm", 2),
        ];
        for (name, n) in fields {
            let ours = program_inputs(name, Size::Profile, 9);
            let theirs = dse_workloads::by_name(name)
                .expect("bundled workload")
                .inputs(dse_workloads::Scale::Profile);
            assert_eq!(ours.len(), theirs.len(), "{name}");
            assert_eq!(ours[..n], theirs[..n], "{name}");
        }
    }

    #[test]
    fn request_mix_is_seeded_and_roughly_calibrated() {
        let a: Vec<_> = request_stream(3, 0).take(2000).collect();
        let b: Vec<_> = request_stream(3, 0).take(2000).collect();
        let cells: std::collections::BTreeSet<_> = a[..COVER_REQUESTS]
            .iter()
            .map(|r| (r.kind as usize, r.program))
            .collect();
        assert_eq!(
            cells.len(),
            COVER_REQUESTS,
            "the opening pass covers every cell once"
        );
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.kind == y.kind && x.program == y.program && x.edit_id == y.edit_id));
        let other: Vec<_> = request_stream(3, 1).take(2000).collect();
        assert!(a.iter().zip(&other).any(|(x, y)| x.edit_id != y.edit_id));
        let mixed = &a[COVER_REQUESTS..];
        let share = |k| mixed.iter().filter(|r| r.kind == k).count() as f64 / mixed.len() as f64;
        for (kind, want) in ReqKind::ALL.into_iter().zip(MIX) {
            assert!((share(kind) - want).abs() < 0.04, "{kind:?}");
        }
        // Programs take turns within a kind: 200 misses cover all eight.
        for program in 0..8 {
            let n = a
                .iter()
                .filter(|r| r.kind == ReqKind::RunMiss && r.program == program);
            assert!(n.count() >= 20, "program {program}");
        }
    }
}
