//! Diagnostic model for the privatization-soundness verifier.
//!
//! Every finding the verifier emits is a [`Diagnostic`] carrying a stable
//! lint code (`DSE0xx`), a severity, an optional source span, and the loop
//! it concerns. Findings are collected into a [`Report`] which renders as
//! human-readable text or as JSON (via the workspace's dependency-free
//! [`dse_telemetry::Json`] value type) and rolls up per-severity counts for
//! telemetry.

use std::fmt;

use dse_lang::source::SourceSpan;
use dse_telemetry::Json;

/// Stable lint codes. Codes are append-only: a code's meaning never changes
/// once shipped, so tooling can filter on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// Profile says thread-private, but the static approximation cannot rule
    /// out a loop-carried flow dependence: the classification is only as good
    /// as the profiling input.
    ProfileUnsound,
    /// A thread-private object and a shared object may alias statically even
    /// though the profile never observed them at a common site.
    MayAliasUnobserved,
    /// A transformed access to a thread-private site is not redirected
    /// through the thread id (Table 2 violation).
    PrivateNotRedirected,
    /// A transformed access to a shared site does not resolve to replica 0
    /// (Table 2 violation).
    SharedNotReplicaZero,
    /// A store to an expanded pointer is not paired with the span bookkeeping
    /// Table 3 requires — or what Section 3.4 derives from a span is out of
    /// date: a constant span that is not the transformed size of an object
    /// its access reaches, or a hoisted redirection used after its pointer
    /// or span was stored.
    SpanNotMaintained,
    /// A DOACROSS synchronization window does not cover an ordered shared
    /// access, or a DOALL body contains synchronization.
    SyncWindowViolation,
    /// Two loops classify the same site inconsistently (private in one merge
    /// partition, shared in another).
    ClassificationConflict,
    /// A candidate loop executed zero iterations during profiling, so its
    /// classification is vacuous.
    ZeroIterationProfile,
    // `DSE009` is retired; codes are never reused, so the numbering keeps
    // the gap.
    /// The stack bytecode violates the constant-depth discipline the
    /// register translation assumes: a depth or type mismatch at a
    /// control-flow join, an operand-stack underflow, or a return with
    /// residual operands.
    StackDiscipline,
    /// A stack instruction references something out of bounds: a jump past
    /// the end of the code, a call to a missing function, or a direct
    /// frame access outside the owning function's declared frame.
    StackBounds,
    /// A register instruction touches a register at or beyond the declared
    /// window size (`frame_regs`), or jumps outside the register code.
    RegWindowBounds,
    /// A register is read on some path before any instruction defines it,
    /// or a call site's promoted-slot spill/reload sequence is broken.
    RegDefUse,
    /// Symbolic execution of a stack block and its register translation
    /// reached different abstract states: diverging register/slot values,
    /// promoted values out of sync with frame memory, mismatched effect
    /// sequences, or a promotion the stack flow does not justify.
    TranslationDivergence,
    /// A precision case of translation validation: a narrow promoted store
    /// missing its sign-extension canonicalization, or scalar promotion
    /// inside an outlined parallel body whose frame is shared across
    /// threads.
    TranslationPrecision,
}

impl Code {
    /// The stable `DSE0xx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ProfileUnsound => "DSE001",
            Code::MayAliasUnobserved => "DSE002",
            Code::PrivateNotRedirected => "DSE003",
            Code::SharedNotReplicaZero => "DSE004",
            Code::SpanNotMaintained => "DSE005",
            Code::SyncWindowViolation => "DSE006",
            Code::ClassificationConflict => "DSE007",
            Code::ZeroIterationProfile => "DSE008",
            Code::StackDiscipline => "DSE010",
            Code::StackBounds => "DSE011",
            Code::RegWindowBounds => "DSE012",
            Code::RegDefUse => "DSE013",
            Code::TranslationDivergence => "DSE014",
            Code::TranslationPrecision => "DSE015",
        }
    }

    /// One-line description used in `dsec check` explanations.
    pub fn summary(self) -> &'static str {
        match self {
            Code::ProfileUnsound => "profiled-private classification not statically sound",
            Code::MayAliasUnobserved => "private and shared objects may alias outside the profile",
            Code::PrivateNotRedirected => {
                "private access not redirected by thread id after expansion"
            }
            Code::SharedNotReplicaZero => "shared access not pinned to replica 0 after expansion",
            Code::SpanNotMaintained => "expanded pointer span not maintained",
            Code::SyncWindowViolation => "DOACROSS sync window violation",
            Code::ClassificationConflict => "conflicting classifications for one site",
            Code::ZeroIterationProfile => "candidate loop never iterated in profile",
            Code::StackDiscipline => "operand-stack discipline violation",
            Code::StackBounds => "stack bytecode jump, call, or frame access out of bounds",
            Code::RegWindowBounds => "register outside the declared window",
            Code::RegDefUse => "register read before definition or broken spill pairing",
            Code::TranslationDivergence => "stack and register translations diverge",
            Code::TranslationPrecision => {
                "narrow-store canonicalization or parallel-body promotion violation"
            }
        }
    }

    /// The severity this code carries under the default (non-strict) policy.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::ProfileUnsound => Severity::Warning,
            Code::MayAliasUnobserved => Severity::Info,
            Code::PrivateNotRedirected
            | Code::SharedNotReplicaZero
            | Code::SpanNotMaintained
            | Code::SyncWindowViolation
            | Code::ClassificationConflict => Severity::Error,
            Code::ZeroIterationProfile => Severity::Warning,
            // Backend-verification findings are miscompiles, never advisory.
            Code::StackDiscipline
            | Code::StackBounds
            | Code::RegWindowBounds
            | Code::RegDefUse
            | Code::TranslationDivergence
            | Code::TranslationPrecision => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is. `Error` findings make `dsec check` (and the
/// implicit pre-transform check) fail; `Warning` only fails under `--strict`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    /// Lowercase name as printed in text output and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Source location of the offending access, when one can be attributed.
    pub span: Option<SourceSpan>,
    /// Label of the loop the finding concerns (e.g. `main#0`), if any.
    pub loop_label: Option<String>,
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span: None,
            loop_label: None,
            message: message.into(),
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: SourceSpan) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches the loop label the finding concerns.
    pub fn with_loop(mut self, label: impl Into<String>) -> Diagnostic {
        self.loop_label = Some(label.into());
        self
    }

    /// Renders one line of text output, e.g.
    /// `warning[DSE001] 5:3: message (loop `main#0`)`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        if let Some(span) = self.span {
            out.push_str(&format!(" {}", span));
        }
        out.push_str(&format!(": {}", self.message));
        if let Some(label) = &self.loop_label {
            out.push_str(&format!(" (loop `{}`)", label));
        }
        out
    }

    /// JSON form of a single diagnostic.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::Str(self.code.as_str().to_string())),
            ("severity", Json::Str(self.severity.as_str().to_string())),
            (
                "span",
                match self.span {
                    Some(s) => Json::Str(s.to_string()),
                    None => Json::Null,
                },
            ),
            (
                "loop",
                match &self.loop_label {
                    Some(l) => Json::Str(l.clone()),
                    None => Json::Null,
                },
            ),
            ("message", Json::Str(self.message.clone())),
        ])
    }
}

/// A collection of diagnostics from one verifier run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Absorbs all findings from another report.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of findings at a given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// True when the run should fail: any error, or any warning under strict.
    pub fn should_fail(&self, strict: bool) -> bool {
        self.count(Severity::Error) > 0 || (strict && self.count(Severity::Warning) > 0)
    }

    /// Sorts findings into stable display order: severity (errors first),
    /// then code, then source position.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.span.map(|s| s.start).cmp(&b.span.map(|s| s.start)))
                .then(a.message.cmp(&b.message))
        });
    }

    /// Full multi-line text rendering, ending with a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} error(s), {} warning(s), {} info(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        ));
        out
    }

    /// JSON rendering: diagnostics plus the summary counts.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            (
                "counts",
                Json::obj(vec![
                    ("errors", Json::Int(self.count(Severity::Error) as i64)),
                    ("warnings", Json::Int(self.count(Severity::Warning) as i64)),
                    ("infos", Json::Int(self.count(Severity::Info) as i64)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_lang::source::SourcePos;

    #[test]
    fn render_includes_code_span_and_loop() {
        let d = Diagnostic::new(Code::ProfileUnsound, "store may race")
            .with_span(SourceSpan::at(SourcePos::new(5, 3)))
            .with_loop("main#0");
        assert_eq!(
            d.render(),
            "warning[DSE001] 5:3: store may race (loop `main#0`)"
        );
    }

    #[test]
    fn report_counts_and_failure_policy() {
        let mut r = Report::default();
        r.push(Diagnostic::new(Code::ProfileUnsound, "w"));
        assert!(!r.should_fail(false));
        assert!(r.should_fail(true));
        r.push(Diagnostic::new(Code::PrivateNotRedirected, "e"));
        assert!(r.should_fail(false));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = Report::default();
        r.push(Diagnostic::new(Code::ProfileUnsound, "w"));
        r.push(Diagnostic::new(Code::SyncWindowViolation, "e"));
        r.sort();
        assert_eq!(r.diagnostics[0].code, Code::SyncWindowViolation);
    }

    #[test]
    fn json_has_counts() {
        let mut r = Report::default();
        r.push(Diagnostic::new(Code::ZeroIterationProfile, "z"));
        let j = r.to_json();
        let counts = j.get("counts").unwrap();
        assert_eq!(counts.get("warnings").and_then(Json::as_i64), Some(1));
        assert_eq!(counts.get("errors").and_then(Json::as_i64), Some(0));
    }
}
