//! Op builder with MLIR-style insertion points.

use crate::ir::{BlockId, Ir, OpId, OpSpec, ValueId};

/// Tracks a (block, position) insertion point and inserts ops there.
/// Dialect crates provide typed helpers layered on [`Builder::insert`].
pub struct Builder<'a> {
    pub ir: &'a mut Ir,
    block: BlockId,
    pos: usize,
}

impl<'a> Builder<'a> {
    /// Builder positioned at the end of `block`.
    pub fn at_end(ir: &'a mut Ir, block: BlockId) -> Self {
        let pos = ir.block(block).ops.len();
        Builder { ir, block, pos }
    }

    /// Builder positioned at `pos` within `block`.
    pub fn at(ir: &'a mut Ir, block: BlockId, pos: usize) -> Self {
        Builder { ir, block, pos }
    }

    /// Builder positioned immediately before `op`.
    pub fn before(ir: &'a mut Ir, op: OpId) -> Self {
        let (block, pos) = ir.op_position(op).expect("op must be in a block");
        Builder { ir, block, pos }
    }

    /// Builder positioned immediately after `op`.
    pub fn after(ir: &'a mut Ir, op: OpId) -> Self {
        let (block, pos) = ir.op_position(op).expect("op must be in a block");
        Builder {
            ir,
            block,
            pos: pos + 1,
        }
    }

    pub fn insertion_block(&self) -> BlockId {
        self.block
    }

    pub fn insertion_pos(&self) -> usize {
        self.pos
    }

    /// Move the insertion point to the end of `block`.
    pub fn set_insertion_point_to_end(&mut self, block: BlockId) {
        self.block = block;
        self.pos = self.ir.block(block).ops.len();
    }

    pub fn set_insertion_point(&mut self, block: BlockId, pos: usize) {
        self.block = block;
        self.pos = pos;
    }

    /// Create an op from `spec` and insert it at the insertion point, which
    /// advances past the new op.
    pub fn insert(&mut self, spec: OpSpec) -> OpId {
        let op = self.ir.create_op(spec);
        self.ir.insert_op(self.block, self.pos, op);
        self.pos += 1;
        op
    }

    /// Insert and return the op's single result.
    pub fn insert_r(&mut self, spec: OpSpec) -> ValueId {
        let op = self.insert(spec);
        self.ir.result(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;

    #[test]
    fn insertion_points() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let _module = ir.create_op(OpSpec::new("builtin.module").region(region));
        {
            let mut b = Builder::at_end(&mut ir, block);
            b.insert(OpSpec::new("first"));
            b.insert(OpSpec::new("third"));
        }
        let third = ir.block(block).ops[1];
        {
            let mut b = Builder::before(&mut ir, third);
            b.insert(OpSpec::new("second"));
        }
        let names: Vec<&str> = ir.block(block).ops.iter().map(|&o| ir.op_name(o)).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn after_position() {
        let mut ir = Ir::new();
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let _module = ir.create_op(OpSpec::new("builtin.module").region(region));
        let a = {
            let mut b = Builder::at_end(&mut ir, block);
            b.insert(OpSpec::new("a"))
        };
        {
            let mut b = Builder::after(&mut ir, a);
            b.insert(OpSpec::new("b"));
        }
        let names: Vec<&str> = ir.block(block).ops.iter().map(|&o| ir.op_name(o)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
