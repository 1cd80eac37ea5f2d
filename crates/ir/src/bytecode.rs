//! The stack-machine bytecode executed by the `dse-runtime` VM.
//!
//! Design notes:
//!
//! * Operand-stack values are `i64` or `f64`; memory is byte-addressable and
//!   loads/stores carry an access width (1/2/4/8). Integer loads
//!   sign-extend; stores truncate — matching the C integer model.
//! * Every `Load`/`Store`/`MemCpy` carries the [`SiteId`] of its static
//!   access site (or [`NO_SITE`](crate::sites::NO_SITE) for synthetic
//!   accesses), which is how the dependence profiler attributes dynamic
//!   accesses to program points.
//! * `LoopMark` instructions are no-ops for plain execution but delimit
//!   candidate-loop iterations for the profiler (serial lowering only).
//! * `ParLoop` hands a `[lo, hi)` iteration range to the parallel executor;
//!   the loop body is a separate code region ending in `Ret`. `Wait`/`Post`
//!   implement DOACROSS cross-iteration ordering; `Localize` is the hook for
//!   the runtime-privatization baseline (Section 4.2.1 of the paper).

use crate::loops::ParMode;
use crate::sites::{SiteId, SiteTable};
use dse_lang::types::TypeTable;
use std::fmt;

/// Program counter: index into [`CompiledProgram::code`].
pub type Pc = u32;

/// Integer binary operators. Arithmetic wraps (the Cee model treats the
/// workloads' 32-bit mixing arithmetic as masked 64-bit arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators (result is an `i64` 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Builtin functions implemented by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `malloc(n)` — allocate `n` bytes, push address.
    Malloc,
    /// `calloc(n, m)` — allocate `n*m` zeroed bytes.
    Calloc,
    /// `realloc(p, n)` — resize, preserving `min(old, n)` bytes.
    Realloc,
    /// `free(p)`.
    Free,
    /// `in_long(i)` — i-th host-provided integer input.
    InLong,
    /// `in_float(i)` — i-th host-provided float input.
    InFloat,
    /// `in_len()` — number of host inputs.
    InLen,
    /// `out_long(v)` — append to host-visible output.
    OutLong,
    /// `out_float(v)` — append to host-visible output.
    OutFloat,
    /// `print_long(v)` — write to console stream.
    PrintLong,
    /// `print_float(v)` — write to console stream.
    PrintFloat,
    /// `fsqrt(x)`.
    Fsqrt,
    /// `fabs(x)`.
    Fabs,
    /// `__tid()` — worker index (0 outside parallel regions). Emitted by the
    /// expansion pass for redirection (Table 2 of the paper).
    Tid,
    /// `__nthreads()` — configured thread count N (Table 1).
    NThreads,
    /// `__realloc_expanded(p, n, old_span)` — expanded realloc: the block
    /// holds N copies of `old_span` bytes; resize to N copies of `n` bytes,
    /// moving each thread's copy. Emitted by the expansion pass.
    ReallocExpanded,
    /// `__memcpy(dst, src, n)` — raw byte copy, used by the expansion pass
    /// to seed copy 0 of re-homed globals from their static initializers.
    MemCpy,
}

/// A builtin's calling convention: one float flag per argument in stack
/// order (bottom→top, which is also register order from the call's
/// argument base) and the result's float flag, if it has a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinSig {
    /// Per argument: true when it is a float.
    pub args: &'static [bool],
    /// `Some(is_float)` when the builtin produces a value.
    pub ret: Option<bool>,
}

impl Builtin {
    /// The builtin's signature — the one table every arity, result and
    /// operand-type question about builtins is answered from.
    pub fn sig(self) -> BuiltinSig {
        const I: bool = false;
        const F: bool = true;
        let (args, ret): (&[bool], _) = match self {
            Builtin::Malloc => (&[I], Some(I)),
            Builtin::Calloc => (&[I, I], Some(I)),
            Builtin::Realloc => (&[I, I], Some(I)),
            Builtin::ReallocExpanded => (&[I, I, I], Some(I)),
            Builtin::Free => (&[I], None),
            Builtin::InLong => (&[I], Some(I)),
            Builtin::InFloat => (&[I], Some(F)),
            Builtin::InLen => (&[], Some(I)),
            Builtin::OutLong => (&[I], None),
            Builtin::OutFloat => (&[F], None),
            Builtin::PrintLong => (&[I], None),
            Builtin::PrintFloat => (&[F], None),
            Builtin::Fsqrt => (&[F], Some(F)),
            Builtin::Fabs => (&[F], Some(F)),
            Builtin::MemCpy => (&[I, I, I], None),
            Builtin::Tid => (&[], Some(I)),
            Builtin::NThreads => (&[], Some(I)),
        };
        BuiltinSig { args, ret }
    }

    /// Number of arguments the builtin pops.
    pub fn arity(self) -> usize {
        self.sig().args.len()
    }

    /// True if the builtin pushes a result value.
    pub fn has_result(self) -> bool {
        self.sig().ret.is_some()
    }

    /// Maps a source-level (or pass-injected) callee name to a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "malloc" => Builtin::Malloc,
            "calloc" => Builtin::Calloc,
            "realloc" => Builtin::Realloc,
            "free" => Builtin::Free,
            "in_long" => Builtin::InLong,
            "in_float" => Builtin::InFloat,
            "in_len" => Builtin::InLen,
            "out_long" => Builtin::OutLong,
            "out_float" => Builtin::OutFloat,
            "print_long" => Builtin::PrintLong,
            "print_float" => Builtin::PrintFloat,
            "fsqrt" => Builtin::Fsqrt,
            "fabs" => Builtin::Fabs,
            "__tid" => Builtin::Tid,
            "__nthreads" => Builtin::NThreads,
            "__realloc_expanded" => Builtin::ReallocExpanded,
            "__memcpy" => Builtin::MemCpy,
            _ => return None,
        })
    }
}

/// Profiler hooks emitted around candidate loops in serial lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopEvent {
    /// Execution is about to enter the loop.
    Begin,
    /// A new iteration starts.
    IterStart,
    /// Execution left the loop.
    End,
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push integer constant.
    PushI(i64),
    /// Push float constant.
    PushF(f64),
    /// Duplicate top of stack.
    Dup,
    /// Discard top of stack.
    Drop,
    /// Duplicate top and insert it *below* the second element:
    /// `[a, b] -> [b, a, b]`. Used to keep assignment values.
    Tuck,
    /// Push `frame_base + offset` (address of a local slot).
    FrameAddr(u32),
    /// Push the absolute address of a global.
    GlobalAddr(u32),
    /// Push a parallel-loop iteration index; the operand is the depth from
    /// the top of the thread's iteration stack (0 = innermost `ParLoop`).
    IterIdx(u8),
    /// Push `tid * k` in one step. The strength-reduced form of the
    /// redirection offsets `tid` and `tid * span / sizeof` with constant
    /// span — the addressing a native compiler folds into one instruction
    /// (keeping the Figure 9b overhead realistic).
    TidScaled(i64),
    /// Pop a span value, push the byte offset `tid * span / z * z` — the
    /// strength-reduced dynamic-span redirection (Table 2's
    /// `tid*span/sizeof(*p)` folded with the element scaling).
    TidSpanScaled(i64),
    /// Push `frame_base + offset + tid * stride` — the one-instruction
    /// addressing of an expanded local's private copy (`v[tid]`), as a
    /// native compiler's addressing modes would compute it.
    FrameAddrTid { offset: u32, stride: i64 },
    /// Push `addr + tid * stride` — the expanded-global equivalent.
    GlobalAddrTid { addr: u32, stride: i64 },
    /// Load `width` bytes from the popped address; sign-extends integers.
    Load {
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// Pop value then address; store `width` bytes (truncating).
    Store {
        width: u8,
        is_float: bool,
        site: SiteId,
    },
    /// Pop destination then source address; copy `size` bytes.
    MemCpy {
        size: u32,
        load_site: SiteId,
        store_site: SiteId,
    },
    /// Integer binary op on the two top values (wrapping).
    IBin(IBinOp),
    /// Float binary op.
    FBin(FBinOp),
    /// Integer comparison, pushes 0/1.
    ICmp(CmpOp),
    /// Float comparison, pushes 0/1.
    FCmp(CmpOp),
    /// Integer negate.
    INeg,
    /// Float negate.
    FNeg,
    /// Bitwise not.
    BNot,
    /// Logical not on an integer (0 -> 1, nonzero -> 0).
    LNot,
    /// Convert integer to float.
    I2F,
    /// Convert float to integer (truncating toward zero).
    F2I,
    /// Truncate integer to `width` bytes and sign-extend back.
    SextTrunc(u8),
    /// Unconditional jump.
    Jump(Pc),
    /// Pop; jump if zero.
    JumpIfZ(Pc),
    /// Pop; jump if nonzero.
    JumpIfNZ(Pc),
    /// Call the function with the given index (args already pushed).
    Call(u32),
    /// Call a builtin.
    CallBuiltin(Builtin),
    /// Return from function (value on stack if non-void) or finish a
    /// parallel-loop body iteration.
    Ret,
    /// Profiler hook (no-op at plain execution) for the given loop id.
    LoopMark(LoopEvent, u32),
    /// Pop `hi` then `lo`; execute the loop body region of loop id for
    /// iterations `lo..hi` under the parallel scheduler.
    ParLoop(u32),
    /// DOACROSS: wait until all previous iterations of the loop have posted.
    Wait(u32),
    /// DOACROSS: signal that this iteration's ordered section is done.
    Post(u32),
    /// Runtime-privatization baseline: pop an address, push its
    /// thread-private translation (copy-in on first touch).
    Localize { site: SiteId },
    /// Stop the program.
    Halt,
}

/// How a parameter is passed. Only scalars (integers, floats, pointers) can
/// be parameters; aggregates are passed by pointer, as in idiomatic C hot
/// paths (the lowering rejects by-value aggregates with a clear error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamKind {
    /// Width of the parameter slot in bytes.
    pub width: u8,
    /// True when the parameter is a float.
    pub is_float: bool,
}

/// Return-value shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetKind {
    /// No value.
    Void,
    /// Scalar value.
    Scalar,
}

/// Per-function metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncInfo {
    /// Source name.
    pub name: String,
    /// Entry pc.
    pub entry: Pc,
    /// Frame size in bytes (params + locals, aligned).
    pub frame_size: u32,
    /// Parameter slots in order: (frame offset, kind).
    pub params: Vec<(u32, ParamKind)>,
    /// The declared locals (parameters first) as `(frame offset, size)`,
    /// by ascending offset; no two share bytes. Scalar promotion treats
    /// each as one C object: an address derived from it stays inside it.
    /// Empty for hand-built bytecode, where the frame is one object.
    pub locals: Vec<(u32, u32)>,
    /// Return shape.
    pub ret: RetKind,
    /// True when the scalar return value is a float (meaningless for
    /// `RetKind::Void`). The register translator needs the callee's result
    /// type to type the caller's destination register.
    pub ret_float: bool,
}

/// A zero-initialized-by-default global with optional constant words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitValue {
    /// Integer value stored with the given byte width.
    Int(i64, u8),
    /// Float value (8 bytes).
    Float(f64),
}

/// Metadata for one candidate loop in the compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopCode {
    /// Loop label (pragma label or synthesized).
    pub label: String,
    /// Function containing the loop.
    pub func: u32,
    /// Scheduling mode this loop was lowered with (`None` in serial
    /// lowering, where the loop runs as an ordinary loop with marks).
    pub mode: Option<ParMode>,
    /// Entry pc of the outlined body region (parallel lowering only).
    pub body_entry: Pc,
    /// Frame offset of the induction variable in `func`'s frame.
    pub induction_offset: u32,
    /// Width in bytes of the induction variable.
    pub induction_width: u8,
}

/// The absolute address where the globals segment starts. The VM places
/// globals here; address 0..GLOBAL_BASE traps as null-pointer territory.
pub const GLOBAL_BASE: u64 = 4096;

/// A fully lowered program ready for the VM.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// All instructions; functions and loop bodies are regions within.
    pub code: Vec<Instr>,
    /// Function table.
    pub funcs: Vec<FuncInfo>,
    /// Index of `main` in [`CompiledProgram::funcs`].
    pub main: u32,
    /// Total byte size of the globals segment.
    pub globals_size: u64,
    /// Constant initial values: (absolute address, value).
    pub global_inits: Vec<(u64, InitValue)>,
    /// Static access sites.
    pub sites: SiteTable,
    /// Candidate-loop metadata, indexed by loop id.
    pub loops: Vec<LoopCode>,
    /// Struct layouts (needed by the runtime-priv baseline and debugging).
    pub types: TypeTable,
    /// Maps the pc of each `malloc`/`calloc`/`realloc` `CallBuiltin`
    /// instruction to the AST expression id of the call, so the profiler
    /// can attribute dynamic allocations to source allocation sites.
    pub alloc_sites: std::collections::HashMap<Pc, u32>,
}

impl CompiledProgram {
    /// Function metadata by index.
    pub fn func(&self, idx: u32) -> &FuncInfo {
        &self.funcs[idx as usize]
    }

    /// Finds a function index by name.
    pub fn func_by_name(&self, name: &str) -> Option<u32> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// Finds a candidate loop id by label.
    pub fn loop_by_label(&self, label: &str) -> Option<u32> {
        self.loops
            .iter()
            .position(|l| l.label == label)
            .map(|i| i as u32)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_name_round_trip() {
        for (name, b) in [
            ("malloc", Builtin::Malloc),
            ("free", Builtin::Free),
            ("__tid", Builtin::Tid),
            ("__realloc_expanded", Builtin::ReallocExpanded),
        ] {
            assert_eq!(Builtin::from_name(name), Some(b));
        }
        assert_eq!(Builtin::from_name("nope"), None);
    }

    #[test]
    fn builtin_arity_and_result() {
        assert_eq!(Builtin::Malloc.arity(), 1);
        assert_eq!(Builtin::Calloc.arity(), 2);
        assert_eq!(Builtin::ReallocExpanded.arity(), 3);
        assert_eq!(Builtin::Tid.arity(), 0);
        assert!(Builtin::Malloc.has_result());
        assert!(!Builtin::Free.has_result());
        assert!(!Builtin::PrintLong.has_result());
    }

    #[test]
    fn compiled_program_lookups() {
        let mut p = CompiledProgram::default();
        p.funcs.push(FuncInfo {
            name: "main".into(),
            entry: 0,
            frame_size: 0,
            params: vec![],
            locals: vec![],
            ret: RetKind::Void,
            ret_float: false,
        });
        p.loops.push(LoopCode {
            label: "hot".into(),
            func: 0,
            mode: None,
            body_entry: 0,
            induction_offset: 0,
            induction_width: 4,
        });
        assert_eq!(p.func_by_name("main"), Some(0));
        assert_eq!(p.func_by_name("f"), None);
        assert_eq!(p.loop_by_label("hot"), Some(0));
        assert_eq!(p.loop_by_label("cold"), None);
    }
}
