//! Attributes: hash-consed constant metadata attached to operations.
//!
//! Floats are stored as raw bits so attributes stay `Eq + Hash` (the same trick
//! MLIR uses via `APFloat` uniquing).

use crate::intern::Istr;
use crate::types::TypeId;

/// Interned attribute handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct AttrId(pub(crate) u32);

/// Structural description of an attribute.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum AttrKind {
    /// `unit` — presence-only flag.
    Unit,
    /// `true` / `false`.
    Bool(bool),
    /// Typed integer, printed `5 : i32` (or `5 : index`).
    Int(i64, TypeId),
    /// Typed float, stored as raw `f64` bits for hashability.
    Float(u64, TypeId),
    /// String literal.
    Str(Istr),
    /// A type used as an attribute (e.g. `function_type`).
    Type(TypeId),
    /// `@symbol` reference.
    SymbolRef(Istr),
    /// `[a, b, c]`.
    Array(Vec<AttrId>),
    /// `{key = value, ...}`.
    Dict(Vec<(Istr, AttrId)>),
}

impl crate::Ir {
    pub fn attr(&mut self, kind: AttrKind) -> AttrId {
        if let Some(&id) = self.attr_map.get(&kind) {
            return id;
        }
        let id = AttrId(self.attrs.len() as u32);
        self.attrs.push(kind.clone());
        self.attr_map.insert(kind, id);
        id
    }

    pub fn attr_kind(&self, id: AttrId) -> &AttrKind {
        &self.attrs[id.0 as usize]
    }

    pub fn attr_unit(&mut self) -> AttrId {
        self.attr(AttrKind::Unit)
    }

    pub fn attr_bool(&mut self, b: bool) -> AttrId {
        self.attr(AttrKind::Bool(b))
    }

    pub fn attr_int(&mut self, v: i64, ty: TypeId) -> AttrId {
        self.attr(AttrKind::Int(v, ty))
    }

    pub fn attr_i64(&mut self, v: i64) -> AttrId {
        let t = self.i64t();
        self.attr_int(v, t)
    }

    pub fn attr_i32(&mut self, v: i64) -> AttrId {
        let t = self.i32t();
        self.attr_int(v, t)
    }

    pub fn attr_index(&mut self, v: i64) -> AttrId {
        let t = self.index_t();
        self.attr_int(v, t)
    }

    pub fn attr_float(&mut self, v: f64, ty: TypeId) -> AttrId {
        self.attr(AttrKind::Float(v.to_bits(), ty))
    }

    pub fn attr_str(&mut self, s: &str) -> AttrId {
        let i = self.intern(s);
        self.attr(AttrKind::Str(i))
    }

    pub fn attr_type(&mut self, ty: TypeId) -> AttrId {
        self.attr(AttrKind::Type(ty))
    }

    pub fn attr_symbol(&mut self, s: &str) -> AttrId {
        let i = self.intern(s);
        self.attr(AttrKind::SymbolRef(i))
    }

    /// Integer payload of an attribute, if it is an `Int` or `Bool`.
    pub fn attr_as_int(&self, id: AttrId) -> Option<i64> {
        match self.attr_kind(id) {
            AttrKind::Int(v, _) => Some(*v),
            AttrKind::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float payload of an attribute, if it is a `Float`.
    pub fn attr_as_float(&self, id: AttrId) -> Option<f64> {
        match self.attr_kind(id) {
            AttrKind::Float(bits, _) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// String payload (for `Str` and `SymbolRef`).
    pub fn attr_as_str(&self, id: AttrId) -> Option<&str> {
        match self.attr_kind(id) {
            AttrKind::Str(s) | AttrKind::SymbolRef(s) => Some(self.str(*s)),
            _ => None,
        }
    }

    pub fn attr_as_type(&self, id: AttrId) -> Option<TypeId> {
        match self.attr_kind(id) {
            AttrKind::Type(t) => Some(*t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Ir;

    #[test]
    fn attrs_are_interned() {
        let mut ir = Ir::new();
        let a = ir.attr_i32(5);
        let b = ir.attr_i32(5);
        let c = ir.attr_i64(5);
        assert_eq!(a, b);
        assert_ne!(a, c, "same value, different type must differ");
    }

    #[test]
    fn float_attrs_hash_by_bits() {
        let mut ir = Ir::new();
        let f = ir.f64t();
        let a = ir.attr_float(1.5, f);
        let b = ir.attr_float(1.5, f);
        assert_eq!(a, b);
        assert_eq!(ir.attr_as_float(a), Some(1.5));
    }

    #[test]
    fn accessors() {
        let mut ir = Ir::new();
        let s = ir.attr_str("gmem0");
        assert_eq!(ir.attr_as_str(s), Some("gmem0"));
        let y = ir.attr_symbol("my_kernel");
        assert_eq!(ir.attr_as_str(y), Some("my_kernel"));
        let i = ir.attr_index(7);
        assert_eq!(ir.attr_as_int(i), Some(7));
        assert_eq!(ir.attr_as_float(i), None);
    }
}
