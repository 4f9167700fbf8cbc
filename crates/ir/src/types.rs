//! The type system: a hash-consed subset of MLIR's builtin types plus opaque
//! dialect types (`!device.kernelhandle`, `!hls.axi_protocol`, ...).

use crate::intern::Istr;

/// Interned type handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TypeId(pub(crate) u32);

/// Dynamic dimension marker in memref shapes (printed as `?`).
pub const DYN_DIM: i64 = -1;

/// Structural description of a type. Interned in [`crate::Ir`]; two types are
/// equal iff their [`TypeId`]s are equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TypeKind {
    /// Signless integer `iN` (i1 doubles as bool, as in MLIR).
    Integer { width: u32 },
    /// `f32`.
    Float32,
    /// `f64`.
    Float64,
    /// Target-width index type used for loop bounds and memref indices.
    Index,
    /// `none` — unit type.
    None,
    /// `memref<shape x elem, memory_space>`; `DYN_DIM` marks `?` dims.
    /// `memory_space` distinguishes host (0), device HBM banks (1..=16) and
    /// device DDR (32) in this pipeline.
    MemRef {
        shape: Vec<i64>,
        elem: TypeId,
        memory_space: u32,
    },
    /// `(inputs) -> (results)` function type.
    Function {
        inputs: Vec<TypeId>,
        results: Vec<TypeId>,
    },
    /// Opaque dialect type `!dialect.name`.
    Opaque { dialect: Istr, name: Istr },
}

impl TypeKind {
    pub fn is_integer(&self) -> bool {
        matches!(self, TypeKind::Integer { .. })
    }

    pub fn is_float(&self) -> bool {
        matches!(self, TypeKind::Float32 | TypeKind::Float64)
    }

    pub fn is_memref(&self) -> bool {
        matches!(self, TypeKind::MemRef { .. })
    }
}

/// Convenience constructors and queries on [`crate::Ir`].
impl crate::Ir {
    pub fn ty(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.type_map.get(&kind) {
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(kind.clone());
        self.type_map.insert(kind, id);
        id
    }

    pub fn type_kind(&self, id: TypeId) -> &TypeKind {
        &self.types[id.0 as usize]
    }

    pub fn i1(&mut self) -> TypeId {
        self.ty(TypeKind::Integer { width: 1 })
    }

    pub fn i32t(&mut self) -> TypeId {
        self.ty(TypeKind::Integer { width: 32 })
    }

    pub fn i64t(&mut self) -> TypeId {
        self.ty(TypeKind::Integer { width: 64 })
    }

    pub fn f32t(&mut self) -> TypeId {
        self.ty(TypeKind::Float32)
    }

    pub fn f64t(&mut self) -> TypeId {
        self.ty(TypeKind::Float64)
    }

    pub fn index_t(&mut self) -> TypeId {
        self.ty(TypeKind::Index)
    }

    pub fn none_t(&mut self) -> TypeId {
        self.ty(TypeKind::None)
    }

    pub fn memref_t(&mut self, shape: &[i64], elem: TypeId, memory_space: u32) -> TypeId {
        self.ty(TypeKind::MemRef {
            shape: shape.to_vec(),
            elem,
            memory_space,
        })
    }

    pub fn function_t(&mut self, inputs: &[TypeId], results: &[TypeId]) -> TypeId {
        self.ty(TypeKind::Function {
            inputs: inputs.to_vec(),
            results: results.to_vec(),
        })
    }

    pub fn opaque_t(&mut self, dialect: &str, name: &str) -> TypeId {
        let d = self.intern(dialect);
        let n = self.intern(name);
        self.ty(TypeKind::Opaque {
            dialect: d,
            name: n,
        })
    }

    /// Element type of a memref type; panics if not a memref.
    pub fn memref_elem(&self, memref: TypeId) -> TypeId {
        match self.type_kind(memref) {
            TypeKind::MemRef { elem, .. } => *elem,
            other => panic!("memref_elem on non-memref type {other:?}"),
        }
    }

    /// Shape of a memref type; panics if not a memref.
    pub fn memref_shape(&self, memref: TypeId) -> &[i64] {
        match self.type_kind(memref) {
            TypeKind::MemRef { shape, .. } => shape,
            other => panic!("memref_shape on non-memref type {other:?}"),
        }
    }

    /// Memory space of a memref type; panics if not a memref.
    pub fn memref_space(&self, memref: TypeId) -> u32 {
        match self.type_kind(memref) {
            TypeKind::MemRef { memory_space, .. } => *memory_space,
            other => panic!("memref_space on non-memref type {other:?}"),
        }
    }

    /// A copy of `memref` placed in a different memory space.
    pub fn memref_in_space(&mut self, memref: TypeId, memory_space: u32) -> TypeId {
        let (shape, elem) = match self.type_kind(memref) {
            TypeKind::MemRef { shape, elem, .. } => (shape.clone(), *elem),
            other => panic!("memref_in_space on non-memref type {other:?}"),
        };
        self.ty(TypeKind::MemRef {
            shape,
            elem,
            memory_space,
        })
    }

    pub fn int_width(&self, ty: TypeId) -> Option<u32> {
        match self.type_kind(ty) {
            TypeKind::Integer { width } => Some(*width),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ir;

    #[test]
    fn types_are_interned() {
        let mut ir = Ir::new();
        let a = ir.f32t();
        let b = ir.f32t();
        assert_eq!(a, b);
        let m1 = ir.memref_t(&[100], a, 1);
        let m2 = ir.memref_t(&[100], a, 1);
        let m3 = ir.memref_t(&[100], a, 0);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn memref_accessors() {
        let mut ir = Ir::new();
        let f32t = ir.f32t();
        let m = ir.memref_t(&[DYN_DIM, 8], f32t, 3);
        assert_eq!(ir.memref_elem(m), f32t);
        assert_eq!(ir.memref_shape(m), &[DYN_DIM, 8]);
        assert_eq!(ir.memref_space(m), 3);
        let m0 = ir.memref_in_space(m, 0);
        assert_eq!(ir.memref_space(m0), 0);
        assert_eq!(ir.memref_shape(m0), ir.memref_shape(m));
    }

    #[test]
    fn opaque_types_distinct_by_name() {
        let mut ir = Ir::new();
        let k = ir.opaque_t("device", "kernelhandle");
        let p = ir.opaque_t("hls", "axi_protocol");
        assert_ne!(k, p);
        assert_eq!(k, ir.opaque_t("device", "kernelhandle"));
    }
}
