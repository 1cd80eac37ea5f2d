//! # dse-lang — the *Cee* frontend
//!
//! `dse-lang` implements a from-scratch frontend for **Cee**, a C-subset
//! language used as the source language of the data-structure-expansion
//! compiler described in *"General Data Structure Expansion for
//! Multi-threading"* (Yu, Ko, Li — PLDI 2013). The paper's transformation is
//! defined over C declarations and memory references (locals, globals, heap
//! objects; scalars, records, arrays; pointer dereferences and recasts), so
//! the frontend supports exactly those constructs:
//!
//! * primitive types `char` (1 byte), `short` (2), `int` (4), `long` (8) and
//!   `float` (stored as IEEE f64 in 8 bytes),
//! * `struct` types with C layout rules (natural alignment, trailing padding),
//! * pointers (any depth), arrays (any rank), pointer/integer casts,
//! * heap management builtins `malloc`, `calloc`, `realloc`, `free`,
//! * functions, global variables with optional constant initializers,
//! * the full C statement repertoire used by the paper's benchmarks
//!   (`if`/`else`, `while`, `do`, `for`, `break`, `continue`, `return`),
//! * `#pragma candidate` to mark a loop as a parallelization candidate
//!   (standing in for the paper's "promising loop" selection).
//!
//! The crate exposes a classic pipeline:
//!
//! ```
//! use dse_lang::compile_to_ast;
//!
//! # fn main() -> Result<(), dse_lang::LangError> {
//! let program = compile_to_ast(
//!     "int main() { int x; x = 21; return x * 2; }")?;
//! assert_eq!(program.functions.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! Semantic analysis ([`sema`]) produces a fully typed AST where every
//! expression node carries its resolved [`types::Type`], ready for lowering
//! by `dse-ir`.

pub mod ast;
pub mod error;
pub mod fasthash;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod sema;
pub mod source;
pub mod token;
pub mod types;

pub use ast::Program;
pub use error::LangError;
pub use source::{SourcePos, SourceSpan};

/// Lexes, parses and type-checks a Cee source string into a typed [`Program`].
///
/// This is the one-call entry point used by the rest of the workspace.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first lexical, syntactic or
/// semantic problem found, with a source location.
pub fn compile_to_ast(source: &str) -> Result<Program, LangError> {
    let tokens = lexer::lex(source)?;
    let mut program = parser::parse(&tokens)?;
    sema::check(&mut program)?;
    ast::number_exprs(&mut program);
    Ok(program)
}
