//! Static memory-access sites.
//!
//! A *site* is one static load or store in the program — the unit the
//! paper's dependence graph, access classes (Definition 4) and redirection
//! rules (Table 2) operate on. Sites are keyed by the owning AST
//! expression's stable id ([`dse_lang::ast::Expr::eid`]) plus the access
//! kind, so the dependence profiler (which observes the lowered bytecode)
//! and the expansion pass (which rewrites the AST) agree on identities.

use dse_lang::fasthash::HashMap;
use dse_lang::SourceSpan;
use std::fmt;

/// Bytecode-level site index (index into [`SiteTable`]).
pub type SiteId = u32;

/// Sentinel for instructions with no associated source-level site
/// (synthetic accesses such as argument copying).
pub const NO_SITE: SiteId = u32::MAX;

/// Whether a site reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => write!(f, "load"),
            AccessKind::Store => write!(f, "store"),
        }
    }
}

/// Metadata for one static access site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteInfo {
    /// Stable AST expression id owning this access
    /// ([`dse_lang::ast::NO_EID`] for synthetic accesses).
    pub eid: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Index of the function the site appears in.
    pub func: u32,
    /// Access width in bytes (full size for aggregate copies).
    pub width: u32,
    /// Source location of the owning expression.
    pub span: SourceSpan,
}

/// All static access sites of a compiled program, in creation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteTable {
    sites: Vec<SiteInfo>,
    by_key: HashMap<(u32, AccessKind), SiteId>,
}

impl SiteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a site and returns its id. A given `(eid, kind)` pair is
    /// registered at most once; re-registration returns the existing id.
    pub fn intern(&mut self, info: SiteInfo) -> SiteId {
        let key = (info.eid, info.kind);
        if info.eid != dse_lang::ast::NO_EID {
            if let Some(&id) = self.by_key.get(&key) {
                return id;
            }
        }
        let id = self.sites.len() as SiteId;
        self.sites.push(info);
        if key.0 != dse_lang::ast::NO_EID {
            self.by_key.insert(key, id);
        }
        id
    }

    /// Looks up the site for an AST expression access.
    pub fn by_eid(&self, eid: u32, kind: AccessKind) -> Option<SiteId> {
        self.by_key.get(&(eid, kind)).copied()
    }

    /// Site metadata by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is [`NO_SITE`] or out of range.
    pub fn info(&self, id: SiteId) -> &SiteInfo {
        &self.sites[id as usize]
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no sites are registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &SiteInfo)> {
        self.sites.iter().enumerate().map(|(i, s)| (i as SiteId, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(eid: u32, kind: AccessKind) -> SiteInfo {
        SiteInfo {
            eid,
            kind,
            func: 0,
            width: 4,
            span: SourceSpan::default(),
        }
    }

    #[test]
    fn intern_returns_stable_ids() {
        let mut t = SiteTable::new();
        let a = t.intern(site(1, AccessKind::Load));
        let b = t.intern(site(2, AccessKind::Store));
        let a2 = t.intern(site(1, AccessKind::Load));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn load_and_store_of_same_eid_are_distinct() {
        let mut t = SiteTable::new();
        let l = t.intern(site(7, AccessKind::Load));
        let s = t.intern(site(7, AccessKind::Store));
        assert_ne!(l, s);
        assert_eq!(t.by_eid(7, AccessKind::Load), Some(l));
        assert_eq!(t.by_eid(7, AccessKind::Store), Some(s));
    }

    #[test]
    fn synthetic_sites_are_never_deduped() {
        let mut t = SiteTable::new();
        let a = t.intern(site(dse_lang::ast::NO_EID, AccessKind::Store));
        let b = t.intern(site(dse_lang::ast::NO_EID, AccessKind::Store));
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_missing_is_none() {
        let t = SiteTable::new();
        assert_eq!(t.by_eid(0, AccessKind::Load), None);
        assert!(t.is_empty());
    }
}
