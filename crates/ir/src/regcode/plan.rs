//! The scalar-promotion decisions ([`promotion_plan`]) and the report of
//! what each region leaves in memory, and why ([`promotion_report`]).

use super::flow::{AccessShape, Place, Slot, StackFlow, NO_OWNER};
use super::Reg;
use crate::bytecode::{CompiledProgram, Instr, Pc};
use crate::sites::NO_SITE;

/// One place a region keeps in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotedPlace {
    /// The frame location.
    pub place: Place,
    /// Its dedicated register.
    pub reg: Reg,
    /// Access width in bytes.
    pub width: u8,
    /// The value is a float.
    pub is_float: bool,
    /// Some path of the region reads the place before writing it: the
    /// region entry loads it (once per call, once per iteration).
    pub entry_load: bool,
    /// An outlined body stores the place and someone can look — its own
    /// next iteration, or another region of the function: every `Ret` of
    /// the body writes it back first.
    pub write_back: bool,
}

/// Scalar-promotion decisions for one translation. Derivable from the
/// [`StackFlow`] alone via [`promotion_plan`], and recorded on the emitted
/// [`super::RegProgram`] so a verifier can check the code against the declared
/// intent and the intent against the flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromotionPlan {
    /// Per-owner operand-depth high-water mark: owner `o`'s promoted
    /// registers start at `maxd[o]`.
    pub maxd: Vec<u32>,
    /// Per owner: its promoted places sorted by place, in registers
    /// `maxd[o]..` in that order. Entry loads, `ParLoop`
    /// spills/reloads and exit write-backs are emitted in this order.
    pub places: Vec<Vec<PromotedPlace>>,
}

impl PromotionPlan {
    /// The register decision for `place` in region `owner`, if promoted.
    pub fn get(&self, owner: u32, place: Place) -> Option<&PromotedPlace> {
        let places = self.places.get(owner as usize)?;
        let i = places.binary_search_by(|p| p.place.cmp(&place)).ok()?;
        Some(&places[i])
    }

    /// The first register above everything region `owner` uses: where the
    /// register windows of its callees start.
    pub fn win(&self, owner: u32) -> u32 {
        let o = owner as usize;
        self.maxd.get(o).copied().unwrap_or(0) + self.places.get(o).map_or(0, |p| p.len() as u32)
    }
}

/// Why a region leaves a declared object in memory ([`promotion_report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Why {
    /// Its address was used as a value — indexed, passed, copied — or lost
    /// at a join.
    Escaped,
    /// The outlined body with this owner index stores it directly: it is
    /// shared between iterations.
    StoredByBody(u32),
    /// Its accesses disagree: on width or type at one place, by
    /// overlapping, or by reaching replicas both plainly and through
    /// `tid` (replica 0 doubles as the shared copy).
    Mixed,
    /// The region shares code with another region.
    SharedCode,
}

/// One object a region accesses and keeps in memory, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kept {
    /// The region.
    pub owner: u32,
    /// Frame offset of the object (of its declaration, when there is one).
    pub off: u32,
    /// The reason.
    pub why: Why,
    /// The stack pc that shows it: the escaping use, or one of the accesses.
    pub pc: Pc,
}

/// A direct access, filed under the function whose frame it targets.
#[derive(Clone, Copy)]
struct Acc {
    owner: u32,
    place: Place,
    shape: AccessShape,
}

impl Acc {
    fn off(&self) -> u32 {
        self.place.off()
    }
}

/// A place that passed every rule but the must-written dataflow.
#[derive(Clone, Copy)]
struct Cand {
    place: Place,
    width: u8,
    is_float: bool,
    stored: bool,
    /// Another region of the function touches the place's object.
    ext: bool,
}

/// Index of the object containing frame offset `off`.
fn object_at(objects: &[(u32, u32)], off: u32) -> Option<usize> {
    let i = objects
        .partition_point(|&(start, _)| start <= off)
        .checked_sub(1)?;
    (off.checked_sub(objects[i].0)? < objects[i].1).then_some(i)
}

/// Derives the scalar-promotion decisions from a [`StackFlow`].
///
/// A *place* is promoted to a dedicated register of its region's window
/// when every observation of it in the region is a direct scalar
/// load/store of one shape, it lies inside one declared object whose
/// address never escaped in the function, it overlaps no other access,
/// and, by region kind:
///
/// * a **function region** promotes plain places;
/// * an **outlined body** promotes a *tid place* — this thread's replica —
///   when the function's bodies reach the object only through tid places
///   of one stride at non-overlapping `[off mod stride, +width)`, and a
///   *plain place* that no body of the function stores: it is invariant
///   while the loop runs (the master waits in `ParLoop`, callees cannot
///   name it).
///
/// Memory stays the truth exactly where someone can look. A forward
/// must-written dataflow over the region finds the places some path reads
/// before writing: those load at region entry. A `ParLoop` the region
/// dispatches spills every stored place before and reloads them all after.
/// A body writes a stored place back before every `Ret` when its next
/// iteration reads it first or another region of the function touches its
/// object; any other place — a temporary assigned before use — never
/// touches memory.
///
/// [`super::translate`] emits under exactly this plan; the verifier re-derives it
/// to prove a [`super::RegProgram::promo`] is justified.
pub fn promotion_plan(prog: &CompiledProgram, flow: &StackFlow) -> PromotionPlan {
    decide(prog, flow, &mut None)
}

/// [`promotion_plan`], plus what each region leaves in memory and why —
/// one entry per (region, object), sorted.
pub fn promotion_report(prog: &CompiledProgram, flow: &StackFlow) -> (PromotionPlan, Vec<Kept>) {
    let mut kept = Some(Vec::new());
    let plan = decide(prog, flow, &mut kept);
    let mut kept = kept.unwrap_or_default();
    kept.sort_unstable_by_key(|k| (k.owner, k.off, k.pc));
    kept.dedup_by_key(|k| (k.owner, k.off));
    (plan, kept)
}

/// The source position of the sited access at or soon after `pc` — where
/// a report points for a [`Kept::pc`]: the disqualifying access itself, or
/// the access the escaping use belongs to (the same statement).
pub fn access_near(prog: &CompiledProgram, pc: Pc) -> Option<dse_lang::SourceSpan> {
    let sited = |ins: &Instr| match *ins {
        Instr::Load { site, .. } | Instr::Store { site, .. } if site != NO_SITE => {
            Some(prog.sites.info(site).span)
        }
        _ => None,
    };
    prog.code[pc as usize..].iter().take(16).find_map(sited)
}

/// The global replicas each region addresses through `tid` — they stay in
/// memory because a callee can name them — as `(owner, address of replica
/// 0, source position of one access)`, one entry per (owner, address).
pub fn global_replicas(
    prog: &CompiledProgram,
    flow: &StackFlow,
) -> Vec<(u32, u32, Option<dse_lang::SourceSpan>)> {
    let mut found: Vec<(u32, u32, Pc)> = prog
        .code
        .iter()
        .enumerate()
        .filter_map(|(pc, ins)| match *ins {
            Instr::GlobalAddrTid { addr, .. } if flow.owner[pc] != NO_OWNER => {
                Some((flow.owner[pc], addr, pc as Pc))
            }
            _ => None,
        })
        .collect();
    found.sort_unstable();
    found.dedup_by_key(|&mut (owner, addr, _)| (owner, addr));
    found
        .into_iter()
        .map(|(owner, addr, pc)| (owner, addr, access_near(prog, pc)))
        .collect()
}

fn decide(prog: &CompiledProgram, flow: &StackFlow, kept: &mut Option<Vec<Kept>>) -> PromotionPlan {
    let nf = prog.funcs.len();
    let n_owners = flow.n_owners();
    let mut maxd = vec![0u32; n_owners];
    for (i, st) in flow.states.iter().enumerate() {
        if let (Some(st), o) = (st, flow.owner[i]) {
            if o != NO_OWNER {
                maxd[o as usize] = maxd[o as usize].max(st.len() as u32);
            }
        }
    }
    // Accesses and escapes by function, accesses sorted by offset once.
    let mut by_func: Vec<Vec<Acc>> = vec![Vec::new(); nf];
    for (&(owner, place), &shape) in &flow.accesses {
        if let Some(accs) = by_func.get_mut(flow.func_of[owner as usize] as usize) {
            accs.push(Acc {
                owner,
                place,
                shape,
            });
        }
    }
    let mut escaped: Vec<Vec<(u32, Pc)>> = vec![Vec::new(); nf];
    for (&(func, off), &pc) in &flow.escapes {
        if let Some(e) = escaped.get_mut(func as usize) {
            e.push((off, pc));
        }
    }
    let mut cands: Vec<Vec<Cand>> = vec![Vec::new(); n_owners];
    let reporting = kept.is_some();
    let mut keep = |owner: u32, off: u32, why: Why, pc: Pc| {
        if let Some(kept) = kept {
            kept.push(Kept {
                owner,
                off,
                why,
                pc,
            });
        }
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        let accs = &mut by_func[fi];
        if accs.is_empty() {
            continue;
        }
        accs.sort_unstable_by_key(|a| (a.off(), a.owner, a.place));
        // Hand-built bytecode declares no objects: its frame is one.
        let whole = [(0, f.frame_size)];
        let objects: &[(u32, u32)] = if f.locals.is_empty() {
            &whole
        } else {
            &f.locals
        };
        // Where each object's address got away (the earliest pc).
        let mut tainted: Vec<Option<Pc>> = vec![None; objects.len()];
        let mut taint = |x: usize, pc: Pc| {
            tainted[x] = Some(tainted[x].map_or(pc, |p: Pc| p.min(pc)));
        };
        for &(off, pc) in &escaped[fi] {
            if let Some(x) = object_at(objects, off) {
                taint(x, pc);
            }
        }
        // An access that is not inside one object breaks the rule the
        // rest rely on; everything it overlaps stays in memory.
        for a in accs.iter() {
            let end = a.off() as u64 + a.shape.max_width as u64;
            let inside = object_at(objects, a.off())
                .is_some_and(|x| end <= objects[x].0 as u64 + objects[x].1 as u64);
            if !inside {
                let first =
                    objects.partition_point(|&(s, z)| (s as u64 + z as u64) <= a.off() as u64);
                for (x, _) in objects
                    .iter()
                    .enumerate()
                    .skip(first)
                    .take_while(|(_, &(s, _))| (s as u64) < end)
                {
                    taint(x, a.shape.pc);
                }
            }
        }
        if reporting {
            // An object reached only through escaped addresses has no
            // direct access to hang the reason on: charge the region
            // where its address got away.
            for (x, &pc) in tainted.iter().enumerate() {
                if let Some(pc) = pc {
                    keep(flow.owner[pc as usize], objects[x].0, Why::Escaped, pc);
                }
            }
        }
        // One object at a time: its accesses are a contiguous run.
        let mut k = 0usize;
        while k < accs.len() {
            let Some(x) = object_at(objects, accs[k].off()) else {
                k += 1;
                continue;
            };
            let (start, size) = objects[x];
            let len = accs[k..]
                .iter()
                .take_while(|a| a.off().checked_sub(start).is_some_and(|rel| rel < size))
                .count();
            let group = &accs[k..k + len];
            k += len;
            if let Some(pc) = tainted[x] {
                for a in group {
                    keep(a.owner, start, Why::Escaped, pc);
                }
                continue;
            }
            // What the function's outlined bodies, together, do to it.
            let many_owners = group.iter().any(|a| a.owner != group[0].owner);
            let in_body = |a: &&Acc| a.owner as usize >= nf;
            let body_plain = group
                .iter()
                .filter(in_body)
                .any(|a| matches!(a.place, Place::Frame(_)));
            let mut strides = group.iter().filter(in_body).filter_map(|a| match a.place {
                Place::FrameTid { stride, .. } => Some(stride),
                Place::Frame(_) => None,
            });
            let body_stride = strides.next();
            let one_stride = body_stride.is_some_and(|s| s > 0 && strides.all(|t| t == s));
            // Replica fields: distinct tid places must not overlap within
            // a replica, nor run past it into the next thread's.
            let tid_ok = one_stride && !body_plain && {
                let stride = body_stride.unwrap_or(1) as u64;
                let mut fields: Vec<(u64, Place, u64)> = group
                    .iter()
                    .filter(in_body)
                    .map(|a| {
                        (
                            (a.off() - start) as u64 % stride,
                            a.place,
                            a.shape.max_width as u64,
                        )
                    })
                    .collect();
                fields.sort_unstable();
                // The same place seen by two bodies: keep its widest view.
                fields.dedup_by(|b, a| {
                    a.1 == b.1 && {
                        a.2 = a.2.max(b.2);
                        true
                    }
                });
                fields.iter().all(|&(rel, _, w)| rel + w <= stride)
                    && fields.windows(2).all(|w| w[0].0 + w[0].2 <= w[1].0)
            };
            let body_stores: Vec<(u32, u32, u32, Pc)> = group
                .iter()
                .filter(in_body)
                .filter(|a| a.shape.stored && matches!(a.place, Place::Frame(_)))
                .map(|a| {
                    let end = a.off() + a.shape.max_width as u32;
                    (a.off(), end, a.owner, a.shape.pc)
                })
                .collect();
            for (i, a) in group.iter().enumerate() {
                let o = a.owner;
                if flow.no_promote[o as usize] {
                    keep(o, start, Why::SharedCode, a.shape.pc);
                    continue;
                }
                let is_body = o as usize >= nf;
                let mixed = Some((Why::Mixed, a.shape.pc));
                let scalar = a.shape.shape.filter(|&(w, isf)| {
                    (w == 8 || (!isf && matches!(w, 1 | 2 | 4)))
                        && a.off() - start + w as u32 <= size
                });
                let Some((width, is_float)) = scalar else {
                    keep(o, start, Why::Mixed, a.shape.pc);
                    continue;
                };
                // Another access of this region that overlaps this one
                // (`group` is sorted by offset; widths fit a `u8`).
                let end = a.off() + a.shape.max_width as u32;
                let overlaps = |b: &Acc| {
                    b.owner == o && b.off() < end && a.off() < b.off() + b.shape.max_width as u32
                };
                let overlapped = group[i + 1..]
                    .iter()
                    .take_while(|b| b.off() < end)
                    .any(overlaps)
                    || group[..i]
                        .iter()
                        .rev()
                        .take_while(|b| a.off() - b.off() <= u8::MAX as u32)
                        .any(overlaps);
                let refused: Option<(Why, Pc)> = match a.place {
                    Place::Frame(_) if overlapped => mixed,
                    // Thread 0's replica, named by `tid` outside any loop.
                    Place::Frame(_) if !is_body => group
                        .iter()
                        .find(|b| b.owner == o && matches!(b.place, Place::FrameTid { .. }))
                        .map(|b| (Why::Mixed, b.shape.pc)),
                    Place::Frame(_) if body_stride.is_some() => mixed,
                    Place::Frame(_) => body_stores
                        .iter()
                        .find(|s| s.0 < end && a.off() < s.1)
                        .map(|&(_, _, by, pc)| (Why::StoredByBody(by), pc)),
                    Place::FrameTid { stride, .. }
                        if is_body && tid_ok && width as i64 <= stride =>
                    {
                        None
                    }
                    Place::FrameTid { .. } => mixed,
                };
                match refused {
                    Some((why, pc)) => keep(o, start, why, pc),
                    None => cands[o as usize].push(Cand {
                        place: a.place,
                        width,
                        is_float,
                        stored: a.shape.stored,
                        ext: many_owners,
                    }),
                }
            }
        }
    }
    let mut places: Vec<Vec<PromotedPlace>> = vec![Vec::new(); n_owners];
    // Must-written state per stack pc (one bit per place, 64 places a
    // walk), shared by all walks; `seen` marks the pcs a walk reached.
    let mut written = vec![0u64; prog.code.len()];
    let mut seen = vec![false; prog.code.len()];
    for (o, cs) in cands.iter_mut().enumerate() {
        if cs.is_empty() {
            continue;
        }
        cs.sort_unstable_by_key(|c| c.place);
        let entry = match o.checked_sub(nf) {
            None => prog.funcs[o].entry,
            Some(bi) => prog.loops[flow.body_loops[bi] as usize].body_entry,
        };
        let rbw: Vec<u64> = cs
            .chunks(64)
            .map(|cs| read_before_write(prog, flow, cs, o >= nf, entry, &mut written, &mut seen))
            .collect();
        places[o] = cs
            .iter()
            .enumerate()
            .map(|(idx, c)| {
                let entry_load = rbw[idx / 64] >> (idx % 64) & 1 != 0;
                PromotedPlace {
                    place: c.place,
                    reg: (maxd[o] as usize + idx) as Reg,
                    width: c.width,
                    is_float: c.is_float,
                    entry_load,
                    write_back: o >= nf && c.stored && (entry_load || c.ext),
                }
            })
            .collect();
    }
    PromotionPlan { maxd, places }
}

/// The forward must-written dataflow of one region over up to 64 candidate
/// places `cs` (sorted by place; bit `i` is `cs[i]`): the set of places
/// some path from `entry` reads before writing. Reads are the direct
/// loads, a `ParLoop` (it spills every stored place, then reloads them all)
/// and — in an outlined body — every `Ret` (it writes back the stored
/// places another region can see, so their registers must be defined
/// there).
fn read_before_write(
    prog: &CompiledProgram,
    flow: &StackFlow,
    cs: &[Cand],
    is_body: bool,
    entry: Pc,
    written: &mut [u64],
    seen: &mut [bool],
) -> u64 {
    let bit = |slot: Option<&Slot>| -> u64 {
        slot.and_then(|s| s.addr_of)
            .and_then(|p| cs.binary_search_by(|c| c.place.cmp(&p)).ok())
            .map_or(0, |i| 1u64 << i)
    };
    let mask = |f: &dyn Fn(&Cand) -> bool| -> u64 {
        cs.iter()
            .enumerate()
            .filter(|(_, c)| f(c))
            .fold(0, |m, (i, _)| m | 1u64 << i)
    };
    let all = mask(&|_| true);
    let stored = mask(&|c| c.stored);
    let seen_outside = mask(&|c| c.stored && c.ext);
    // (places read, places written) by the instruction at `pc`.
    let effect = |pc: usize| -> (u64, u64) {
        let st = flow.states[pc].as_deref().unwrap_or(&[]);
        match prog.code[pc] {
            Instr::Load { .. } => (bit(st.last()), 0),
            Instr::Store { .. } => (0, bit(st.len().checked_sub(2).and_then(|i| st.get(i)))),
            Instr::ParLoop(_) => (stored, all),
            Instr::Ret if is_body => (seen_outside, 0),
            _ => (0, 0),
        }
    };
    let mut work = vec![entry as usize];
    written[entry as usize] = 0;
    seen[entry as usize] = true;
    let mut visited = vec![entry as usize];
    while let Some(pc) = work.pop() {
        let out = written[pc] | effect(pc).1;
        let (a, b) = match prog.code[pc] {
            Instr::Jump(t) => (Some(t as usize), None),
            Instr::JumpIfZ(t) | Instr::JumpIfNZ(t) => (Some(t as usize), Some(pc + 1)),
            Instr::Ret | Instr::Halt => (None, None),
            _ => (Some(pc + 1), None),
        };
        for s in a.into_iter().chain(b) {
            if s >= written.len() {
                continue;
            }
            if !seen[s] {
                seen[s] = true;
                visited.push(s);
                written[s] = out;
                work.push(s);
            } else if written[s] & out != written[s] {
                written[s] &= out;
                work.push(s);
            }
        }
    }
    visited.into_iter().fold(0, |rbw, pc| {
        seen[pc] = false; // the region's next 64 places walk it again
        rbw | effect(pc).0 & !written[pc]
    })
}
