//! The Cee type system: primitive types, pointers, arrays and structs with
//! C layout rules (natural alignment, field offsets, trailing padding).
//!
//! Byte sizes follow the paper's C model: `char` = 1, `short` = 2, `int` = 4,
//! `long` = 8, pointers = 8. `float` is stored as an IEEE `f64` in 8 bytes —
//! Cee has a single floating type, spelled `float` for C-likeness.

use std::fmt;

/// Index of a struct definition inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "struct#{}", self.0)
    }
}

/// A Cee type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — only valid as a function return type or behind a pointer.
    Void,
    /// 1-byte signed integer.
    Char,
    /// 2-byte signed integer.
    Short,
    /// 4-byte signed integer.
    Int,
    /// 8-byte signed integer.
    Long,
    /// Floating point, stored as IEEE f64 in 8 bytes.
    Float,
    /// Pointer to a pointee type.
    Pointer(Box<Type>),
    /// Fixed-length array.
    Array(Box<Type>, u64),
    /// Named struct type; layout lives in the [`TypeTable`].
    Struct(StructId),
}

impl Type {
    /// Convenience constructor for a pointer to `self`.
    pub fn ptr_to(self) -> Type {
        Type::Pointer(Box::new(self))
    }

    /// Convenience constructor for an array of `n` elements of `self`.
    pub fn array_of(self, n: u64) -> Type {
        Type::Array(Box::new(self), n)
    }

    /// True for `char`/`short`/`int`/`long`.
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Char | Type::Short | Type::Int | Type::Long)
    }

    /// True for the floating type.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float)
    }

    /// True for integers and floats.
    pub fn is_arithmetic(&self) -> bool {
        self.is_integer() || self.is_float()
    }

    /// True for pointer types.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(_))
    }

    /// True for integers and pointers — types usable in conditions and
    /// pointer arithmetic.
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || self.is_pointer()
    }

    /// True for struct and array types.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Type::Struct(_) | Type::Array(..))
    }

    /// The pointee of a pointer type, or the element of an array type
    /// (arrays decay in expression contexts).
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Pointer(t) => Some(t),
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Strips one level of array, yielding the decayed pointer type.
    pub fn decayed(&self) -> Type {
        match self {
            Type::Array(elem, _) => Type::Pointer(elem.clone()),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Char => write!(f, "char"),
            Type::Short => write!(f, "short"),
            Type::Int => write!(f, "int"),
            Type::Long => write!(f, "long"),
            Type::Float => write!(f, "float"),
            Type::Pointer(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(id) => write!(f, "{id}"),
        }
    }
}

/// One field of a struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the start of the struct (filled in by layout).
    pub offset: u64,
}

/// A struct definition with computed layout.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Source name of the struct.
    pub name: String,
    /// Fields in declaration order, with offsets.
    pub fields: Vec<Field>,
    /// Total size in bytes including trailing padding.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

impl StructDef {
    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Registry of struct definitions; owns all layout information.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeTable {
    structs: Vec<StructDef>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a struct id before its fields are known, so the body can
    /// contain pointers to the struct itself (`struct Node *next`).
    /// Complete it with [`TypeTable::complete_struct`].
    pub fn declare_struct(&mut self, name: impl Into<String>) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(StructDef {
            name: name.into(),
            fields: Vec::new(),
            size: 0,
            align: 1,
        });
        id
    }

    /// Fills in the fields of a struct reserved by
    /// [`TypeTable::declare_struct`] and computes its layout.
    ///
    /// Returns `Err` with the offending field name if a field contains the
    /// struct itself *by value* (directly or through nested structs/arrays),
    /// which would make the type infinitely large.
    pub fn complete_struct(
        &mut self,
        id: StructId,
        fields: Vec<(String, Type)>,
    ) -> Result<(), String> {
        for (fname, fty) in &fields {
            if self.type_embeds_struct(fty, id) {
                return Err(fname.clone());
            }
        }
        let mut laid = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut align = 1u64;
        for (fname, fty) in fields {
            let fa = self.align_of(&fty);
            let fs = self.size_of(&fty);
            offset = round_up(offset, fa);
            laid.push(Field {
                name: fname,
                ty: fty,
                offset,
            });
            offset += fs;
            align = align.max(fa);
        }
        let size = round_up(offset.max(1), align);
        let def = &mut self.structs[id.0 as usize];
        def.fields = laid;
        def.size = size;
        def.align = align;
        Ok(())
    }

    /// True if `ty` contains `target` by value (not behind a pointer).
    fn type_embeds_struct(&self, ty: &Type, target: StructId) -> bool {
        match ty {
            Type::Struct(id) if *id == target => true,
            Type::Struct(id) => self
                .struct_def(*id)
                .fields
                .iter()
                .any(|f| self.type_embeds_struct(&f.ty, target)),
            Type::Array(elem, _) => self.type_embeds_struct(elem, target),
            _ => false,
        }
    }

    /// Registers a struct with the given fields, computing its C layout.
    /// Use [`TypeTable::declare_struct`] + [`TypeTable::complete_struct`]
    /// for self-referential structs.
    ///
    /// # Panics
    ///
    /// Panics if a field embeds the struct by value (impossible here since
    /// the id is fresh) or any field type is unsized, which the parser
    /// rules out.
    pub fn define_struct(
        &mut self,
        name: impl Into<String>,
        fields: Vec<(String, Type)>,
    ) -> StructId {
        let id = self.declare_struct(name);
        self.complete_struct(id, fields)
            .expect("fresh struct cannot embed itself");
        id
    }

    /// Looks up a struct definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.0 as usize]
    }

    /// Finds a struct by source name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.structs
            .iter()
            .position(|s| s.name == name)
            .map(|i| StructId(i as u32))
    }

    /// All registered structs in definition order.
    pub fn structs(&self) -> &[StructDef] {
        &self.structs
    }

    /// Size of a type in bytes.
    ///
    /// # Panics
    ///
    /// Panics on `void`, which has no size.
    pub fn size_of(&self, ty: &Type) -> u64 {
        match ty {
            Type::Void => panic!("void has no size"),
            Type::Char => 1,
            Type::Short => 2,
            Type::Int => 4,
            Type::Long | Type::Float | Type::Pointer(_) => 8,
            Type::Array(elem, n) => self.size_of(elem) * n,
            Type::Struct(id) => self.struct_def(*id).size,
        }
    }

    /// Alignment of a type in bytes.
    pub fn align_of(&self, ty: &Type) -> u64 {
        match ty {
            Type::Void => 1,
            Type::Char => 1,
            Type::Short => 2,
            Type::Int => 4,
            Type::Long | Type::Float | Type::Pointer(_) => 8,
            Type::Array(elem, _) => self.align_of(elem),
            Type::Struct(id) => self.struct_def(*id).align,
        }
    }
}

/// Rounds `v` up to the next multiple of `align` (which must be a power of
/// two or any positive integer — we use the generic formula).
pub fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes_match_c_model() {
        let tt = TypeTable::new();
        assert_eq!(tt.size_of(&Type::Char), 1);
        assert_eq!(tt.size_of(&Type::Short), 2);
        assert_eq!(tt.size_of(&Type::Int), 4);
        assert_eq!(tt.size_of(&Type::Long), 8);
        assert_eq!(tt.size_of(&Type::Float), 8);
        assert_eq!(tt.size_of(&Type::Int.ptr_to()), 8);
    }

    #[test]
    fn array_size_is_elem_times_len() {
        let tt = TypeTable::new();
        assert_eq!(tt.size_of(&Type::Int.array_of(10)), 40);
        assert_eq!(tt.size_of(&Type::Char.array_of(3).array_of(2)), 6);
    }

    #[test]
    fn struct_layout_inserts_padding() {
        let mut tt = TypeTable::new();
        // struct { char c; int i; } -> c@0, i@4, size 8, align 4
        let id = tt.define_struct("S", vec![("c".into(), Type::Char), ("i".into(), Type::Int)]);
        let s = tt.struct_def(id);
        assert_eq!(s.field("c").unwrap().offset, 0);
        assert_eq!(s.field("i").unwrap().offset, 4);
        assert_eq!(s.size, 8);
        assert_eq!(s.align, 4);
    }

    #[test]
    fn struct_trailing_padding() {
        let mut tt = TypeTable::new();
        // struct { long l; char c; } -> size 16 (rounded to align 8)
        let id = tt.define_struct(
            "S",
            vec![("l".into(), Type::Long), ("c".into(), Type::Char)],
        );
        assert_eq!(tt.struct_def(id).size, 16);
    }

    #[test]
    fn nested_struct_layout() {
        let mut tt = TypeTable::new();
        let inner = tt.define_struct(
            "In",
            vec![("a".into(), Type::Short), ("b".into(), Type::Long)],
        );
        assert_eq!(tt.struct_def(inner).size, 16);
        let outer = tt.define_struct(
            "Out",
            vec![("c".into(), Type::Char), ("s".into(), Type::Struct(inner))],
        );
        let o = tt.struct_def(outer);
        assert_eq!(o.field("s").unwrap().offset, 8);
        assert_eq!(o.size, 24);
    }

    #[test]
    fn empty_struct_has_nonzero_size() {
        let mut tt = TypeTable::new();
        let id = tt.define_struct("E", vec![]);
        assert_eq!(tt.struct_def(id).size, 1);
    }

    #[test]
    fn array_decays_to_pointer() {
        let arr = Type::Int.array_of(5);
        assert_eq!(arr.decayed(), Type::Int.ptr_to());
        assert_eq!(Type::Int.decayed(), Type::Int);
    }

    #[test]
    fn pointee_of_pointer_and_array() {
        assert_eq!(Type::Int.ptr_to().pointee(), Some(&Type::Int));
        assert_eq!(Type::Int.array_of(4).pointee(), Some(&Type::Int));
        assert_eq!(Type::Int.pointee(), None);
    }

    #[test]
    fn classification_predicates() {
        assert!(Type::Char.is_integer());
        assert!(!Type::Float.is_integer());
        assert!(Type::Float.is_arithmetic());
        assert!(Type::Int.ptr_to().is_scalar());
        assert!(!Type::Int.array_of(2).is_scalar());
        assert!(Type::Int.array_of(2).is_aggregate());
    }

    #[test]
    fn struct_lookup_by_name() {
        let mut tt = TypeTable::new();
        let id = tt.define_struct("Node", vec![("v".into(), Type::Int)]);
        assert_eq!(tt.struct_by_name("Node"), Some(id));
        assert_eq!(tt.struct_by_name("Missing"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::Int.ptr_to().to_string(), "int*");
        assert_eq!(Type::Int.array_of(3).to_string(), "int[3]");
    }

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up(0, 8), 0);
        assert_eq!(round_up(1, 8), 8);
        assert_eq!(round_up(8, 8), 8);
        assert_eq!(round_up(9, 4), 12);
    }
}
