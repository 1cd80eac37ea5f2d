//! Bytecode disassembler: a readable listing of a compiled program with
//! function/loop-region boundaries and site annotations, and of its
//! register translation (`dsec --emit bytecode` prints both; tests use
//! them to assert code shapes).

use crate::bytecode::*;
use crate::regcode::RegProgram;
use std::fmt::Write;

/// Renders the whole program as an annotated listing.
pub fn disassemble(p: &CompiledProgram) -> String {
    let mut out = String::new();
    // Region labels by entry pc.
    let mut labels: Vec<(Pc, String)> = p
        .funcs
        .iter()
        .map(|f| {
            // The object boundaries are part of what the code means to the
            // register translator, so they are part of the listing (and of
            // every content key derived from it).
            let locals: Vec<String> = f
                .locals
                .iter()
                .map(|(off, size)| format!("{off}+{size}"))
                .collect();
            (
                f.entry,
                format!(
                    "fn {}(frame {}B; locals {})",
                    f.name,
                    f.frame_size,
                    locals.join(" ")
                ),
            )
        })
        .collect();
    for (i, l) in p.loops.iter().enumerate() {
        if l.mode.is_some() {
            labels.push((
                l.body_entry,
                format!("loop body `{}` (#{}, {:?})", l.label, i, l.mode),
            ));
        }
    }
    labels.sort();
    let mut next_label = 0usize;
    for (pc, instr) in p.code.iter().enumerate() {
        while next_label < labels.len() && labels[next_label].0 as usize == pc {
            let _ = writeln!(out, "{}:", labels[next_label].1);
            next_label += 1;
        }
        let _ = writeln!(out, "  {pc:5}  {}", render_instr(p, *instr));
    }
    out
}

/// Renders a register translation under a `-- reg (N instrs) --` header:
/// one line per instruction with the stack pc it was translated from (the
/// final `Unreachable` names the pc one past the stack code), then the
/// entry map and the window size.
pub fn disassemble_reg(rp: &RegProgram) -> String {
    let mut out = format!("-- reg ({} instrs) --\n", rp.code.len());
    for (pc, instr) in rp.code.iter().enumerate() {
        let _ = writeln!(out, "  {pc:5} (pc {:5})  {instr}", rp.origin_pc(pc));
    }
    let mut entries: Vec<_> = rp.entry_map.iter().collect();
    entries.sort();
    let _ = writeln!(out, "entries (stack pc -> reg pc): {entries:?}");
    let _ = writeln!(out, "window registers: {}", rp.frame_regs);
    out
}

/// Renders one instruction with site annotations.
pub fn render_instr(p: &CompiledProgram, i: Instr) -> String {
    let site = |s: u32| -> String {
        if s == crate::sites::NO_SITE {
            String::new()
        } else {
            let info = p.sites.info(s);
            format!(
                "  ; site {s} ({:?} eid {} @{})",
                info.kind, info.eid, info.span
            )
        }
    };
    match i {
        Instr::Load {
            width,
            is_float,
            site: s,
        } => {
            format!(
                "Load{}{}{}",
                width,
                if is_float { "f" } else { "" },
                site(s)
            )
        }
        Instr::Store {
            width,
            is_float,
            site: s,
        } => {
            format!(
                "Store{}{}{}",
                width,
                if is_float { "f" } else { "" },
                site(s)
            )
        }
        Instr::MemCpy {
            size,
            load_site,
            store_site,
        } => {
            format!("MemCpy {size}B{}{}", site(load_site), site(store_site))
        }
        Instr::Localize { site: s } => format!("Localize{}", site(s)),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::ParMode;
    use crate::lower::{LowerMode, LowerOptions, ParLoopSpec};

    #[test]
    fn listing_marks_functions_and_loop_bodies() {
        let ast = dse_lang::compile_to_ast(
            "int helper(int x) { return x + 1; }
             int main() { int s; s = 0;
               #pragma candidate hot
               for (int i = 0; i < 4; i++) { s += helper(i); }
               return s; }",
        )
        .unwrap();
        let mut opts = LowerOptions {
            mode: LowerMode::Parallel,
            ..Default::default()
        };
        opts.par = vec![Some(ParLoopSpec {
            mode: ParMode::DoAll,
            sync_window: None,
        })];
        let c = crate::lower_program(&ast, &opts).unwrap();
        let listing = disassemble(&c);
        assert!(listing.contains("fn helper"));
        assert!(listing.contains("fn main"));
        assert!(listing.contains("loop body `hot`"));
        assert!(listing.contains("ParLoop(0)"));
        assert!(listing.contains("; site"));
    }

    #[test]
    fn every_pc_appears_once() {
        let ast = dse_lang::compile_to_ast("int main() { int x; x = 1; return x * 2; }").unwrap();
        let c = crate::lower_program(&ast, &LowerOptions::default()).unwrap();
        let listing = disassemble(&c);
        assert_eq!(
            listing.lines().filter(|l| l.starts_with("  ")).count(),
            c.code.len()
        );
    }
}
