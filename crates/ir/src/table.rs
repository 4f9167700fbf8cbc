//! Dense side tables keyed by [`ValueId`]: what a printer or emitter keeps
//! per SSA value (its name, a type it inferred) without hashing the id.

use crate::ir::{Ir, ValueId};

/// `ValueId -> T`, sized once for the whole arena and reusable across the
/// functions of a module: [`ValueTable::clear`] costs what was set, not what
/// was allocated.
pub struct ValueTable<T> {
    slots: Vec<Option<T>>,
    set: Vec<ValueId>,
}

impl<T: Copy> ValueTable<T> {
    /// An empty table with a slot for every value `ir` holds now.
    pub fn new(ir: &Ir) -> Self {
        ValueTable {
            slots: vec![None; ir.values.len()],
            set: Vec::new(),
        }
    }

    pub fn get(&self, v: ValueId) -> Option<T> {
        self.slots[v.index()]
    }

    pub fn insert(&mut self, v: ValueId, value: T) {
        if self.slots[v.index()].replace(value).is_none() {
            self.set.push(v);
        }
    }

    /// Forget every entry.
    pub fn clear(&mut self) {
        for v in self.set.drain(..) {
            self.slots[v.index()] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;

    #[test]
    fn insert_get_clear() {
        let mut ir = Ir::new();
        let i32t = ir.i32t();
        let a = ir.create_op(OpSpec::new("a").results(&[i32t, i32t]));
        let (x, y) = (ir.op(a).results[0], ir.op(a).results[1]);
        let mut t: ValueTable<u32> = ValueTable::new(&ir);
        assert_eq!(t.get(x), None);
        t.insert(x, 7);
        t.insert(x, 8);
        assert_eq!(t.get(x), Some(8));
        assert_eq!(t.get(y), None);
        t.clear();
        assert_eq!(t.get(x), None);
        t.insert(y, 1);
        assert_eq!(t.get(y), Some(1));
    }
}
