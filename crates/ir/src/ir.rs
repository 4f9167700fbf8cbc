//! The IR arena: owns every operation, block, region and value.
//!
//! Layout follows the classic compiler-arena idiom from the Rust performance
//! guides: entities live in flat `Vec`s, are addressed by `u32` newtype ids and
//! never move. Erasure marks entities dead (tombstones); the arena is
//! short-lived per compilation so space is not reclaimed.

use std::collections::HashMap;

use crate::attrs::{AttrId, AttrKind};
use crate::intern::{Interner, Istr};
use crate::types::{TypeId, TypeKind};

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OpId(pub(crate) u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub(crate) u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RegionId(pub(crate) u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueId(pub(crate) u32);

impl OpId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ValueId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a value is defined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Def {
    OpResult { op: OpId, index: u32 },
    BlockArg { block: BlockId, index: u32 },
}

/// One use of a value: operand `index` of `op`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Use {
    pub op: OpId,
    pub index: u32,
}

#[derive(Debug)]
pub struct OpData {
    pub name: Istr,
    pub operands: Vec<ValueId>,
    pub results: Vec<ValueId>,
    pub attrs: Vec<(Istr, AttrId)>,
    pub regions: Vec<RegionId>,
    pub successors: Vec<BlockId>,
    pub parent: Option<BlockId>,
    pub alive: bool,
}

#[derive(Debug)]
pub struct BlockData {
    pub args: Vec<ValueId>,
    pub ops: Vec<OpId>,
    pub parent: Option<RegionId>,
    pub alive: bool,
}

#[derive(Debug)]
pub struct RegionData {
    pub blocks: Vec<BlockId>,
    pub parent: Option<OpId>,
    pub alive: bool,
}

#[derive(Debug)]
pub struct ValueData {
    pub ty: TypeId,
    pub def: Def,
    pub uses: Vec<Use>,
}

/// Specification for creating an operation via [`Ir::create_op`] or
/// [`crate::Builder`]. Regions must be created beforehand with
/// [`Ir::new_region`].
pub struct OpSpec<'a> {
    pub name: &'a str,
    pub operands: Vec<ValueId>,
    pub result_types: Vec<TypeId>,
    pub attrs: Vec<(&'a str, AttrId)>,
    pub regions: Vec<RegionId>,
    pub successors: Vec<BlockId>,
}

impl<'a> OpSpec<'a> {
    pub fn new(name: &'a str) -> Self {
        OpSpec {
            name,
            operands: vec![],
            result_types: vec![],
            attrs: vec![],
            regions: vec![],
            successors: vec![],
        }
    }

    pub fn operands(mut self, operands: &[ValueId]) -> Self {
        self.operands = operands.to_vec();
        self
    }

    pub fn results(mut self, result_types: &[TypeId]) -> Self {
        self.result_types = result_types.to_vec();
        self
    }

    pub fn attr(mut self, key: &'a str, value: AttrId) -> Self {
        self.attrs.push((key, value));
        self
    }

    pub fn region(mut self, region: RegionId) -> Self {
        self.regions.push(region);
        self
    }

    pub fn successors(mut self, succs: &[BlockId]) -> Self {
        self.successors = succs.to_vec();
        self
    }
}

/// The IR context and arena. See module docs.
pub struct Ir {
    pub(crate) strings: Interner,
    pub(crate) types: Vec<TypeKind>,
    pub(crate) type_map: HashMap<TypeKind, TypeId>,
    pub(crate) attrs: Vec<AttrKind>,
    pub(crate) attr_map: HashMap<AttrKind, AttrId>,
    pub(crate) ops: Vec<OpData>,
    pub(crate) blocks: Vec<BlockData>,
    pub(crate) regions: Vec<RegionData>,
    pub(crate) values: Vec<ValueData>,
    /// Ops created and not yet erased; what `live_op_count` reports.
    live_ops: usize,
}

impl Default for Ir {
    fn default() -> Self {
        Self::new()
    }
}

impl Ir {
    pub fn new() -> Self {
        Ir {
            strings: Interner::default(),
            types: Vec::new(),
            type_map: HashMap::new(),
            attrs: Vec::new(),
            attr_map: HashMap::new(),
            ops: Vec::with_capacity(256),
            blocks: Vec::with_capacity(64),
            regions: Vec::with_capacity(64),
            values: Vec::with_capacity(512),
            live_ops: 0,
        }
    }

    // ---- strings -----------------------------------------------------------

    pub fn intern(&mut self, s: &str) -> Istr {
        self.strings.intern(s)
    }

    pub fn str(&self, id: Istr) -> &str {
        self.strings.get(id)
    }

    // ---- entity accessors ---------------------------------------------------

    pub fn op(&self, id: OpId) -> &OpData {
        &self.ops[id.0 as usize]
    }

    pub fn op_mut(&mut self, id: OpId) -> &mut OpData {
        &mut self.ops[id.0 as usize]
    }

    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.0 as usize]
    }

    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.0 as usize]
    }

    pub fn region(&self, id: RegionId) -> &RegionData {
        &self.regions[id.0 as usize]
    }

    pub fn region_mut(&mut self, id: RegionId) -> &mut RegionData {
        &mut self.regions[id.0 as usize]
    }

    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.0 as usize]
    }

    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.0 as usize]
    }

    pub fn value_ty(&self, id: ValueId) -> TypeId {
        self.values[id.0 as usize].ty
    }

    /// Retype a value in place. Used by conversion passes that move values
    /// between memory spaces (e.g. host memref block args becoming device
    /// memrefs after `lower-omp-mapped-data`).
    pub fn set_value_type(&mut self, id: ValueId, ty: TypeId) {
        self.values[id.0 as usize].ty = ty;
    }

    /// Name of an op as a `&str`.
    pub fn op_name(&self, id: OpId) -> &str {
        self.str(self.op(id).name)
    }

    pub fn op_is(&self, id: OpId, name: &str) -> bool {
        self.op_name(id) == name
    }

    // ---- creation -----------------------------------------------------------

    pub fn new_region(&mut self) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData {
            blocks: vec![],
            parent: None,
            alive: true,
        });
        id
    }

    /// Create a block with the given argument types and append it to `region`.
    pub fn new_block(&mut self, region: RegionId, arg_types: &[TypeId]) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            args: vec![],
            ops: vec![],
            parent: Some(region),
            alive: true,
        });
        for (i, &ty) in arg_types.iter().enumerate() {
            let v = ValueId(self.values.len() as u32);
            self.values.push(ValueData {
                ty,
                def: Def::BlockArg {
                    block: id,
                    index: i as u32,
                },
                uses: vec![],
            });
            self.blocks[id.0 as usize].args.push(v);
        }
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Append an extra argument to an existing block.
    pub fn add_block_arg(&mut self, block: BlockId, ty: TypeId) -> ValueId {
        let index = self.block(block).args.len() as u32;
        let v = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            ty,
            def: Def::BlockArg { block, index },
            uses: vec![],
        });
        self.block_mut(block).args.push(v);
        v
    }

    /// Create a detached operation (not yet inserted into a block).
    pub fn create_op(&mut self, spec: OpSpec) -> OpId {
        let name = self.intern(spec.name);
        let id = OpId(self.ops.len() as u32);
        let attrs = spec
            .attrs
            .iter()
            .map(|(k, v)| (self.strings.intern(k), *v))
            .collect();
        self.ops.push(OpData {
            name,
            operands: vec![],
            results: vec![],
            attrs,
            regions: spec.regions.clone(),
            successors: spec.successors.clone(),
            parent: None,
            alive: true,
        });
        self.live_ops += 1;
        for &r in &spec.regions {
            self.regions[r.0 as usize].parent = Some(id);
        }
        for (i, &ty) in spec.result_types.iter().enumerate() {
            let v = ValueId(self.values.len() as u32);
            self.values.push(ValueData {
                ty,
                def: Def::OpResult {
                    op: id,
                    index: i as u32,
                },
                uses: vec![],
            });
            self.ops[id.0 as usize].results.push(v);
        }
        for (i, &operand) in spec.operands.iter().enumerate() {
            self.ops[id.0 as usize].operands.push(operand);
            self.values[operand.0 as usize].uses.push(Use {
                op: id,
                index: i as u32,
            });
        }
        id
    }

    // ---- block membership ----------------------------------------------------

    /// Append `op` at the end of `block`.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        debug_assert!(self.op(op).parent.is_none(), "op already in a block");
        self.blocks[block.0 as usize].ops.push(op);
        self.ops[op.0 as usize].parent = Some(block);
    }

    /// Insert `op` at position `pos` within `block`.
    pub fn insert_op(&mut self, block: BlockId, pos: usize, op: OpId) {
        debug_assert!(self.op(op).parent.is_none(), "op already in a block");
        self.blocks[block.0 as usize].ops.insert(pos, op);
        self.ops[op.0 as usize].parent = Some(block);
    }

    /// Detach `op` from its parent block (does not erase it).
    pub fn detach_op(&mut self, op: OpId) {
        if let Some(block) = self.ops[op.0 as usize].parent.take() {
            let ops = &mut self.blocks[block.0 as usize].ops;
            if let Some(pos) = ops.iter().position(|&o| o == op) {
                ops.remove(pos);
            }
        }
    }

    /// Move `from`'s ops at positions `range` to position `pos` of `to`, in
    /// order (inlining a region body is one call, not a detach per op).
    pub fn move_ops(
        &mut self,
        from: BlockId,
        range: std::ops::Range<usize>,
        to: BlockId,
        pos: usize,
    ) {
        debug_assert_ne!(from, to, "move_ops within one block");
        let moved: Vec<OpId> = self.blocks[from.0 as usize].ops.drain(range).collect();
        for &op in &moved {
            self.ops[op.0 as usize].parent = Some(to);
        }
        self.blocks[to.0 as usize].ops.splice(pos..pos, moved);
    }

    /// Position of `op` within its parent block.
    pub fn op_position(&self, op: OpId) -> Option<(BlockId, usize)> {
        let block = self.op(op).parent?;
        let pos = self.block(block).ops.iter().position(|&o| o == op)?;
        Some((block, pos))
    }

    // ---- use-def maintenance --------------------------------------------------

    /// Replace operand `index` of `op` with `new`.
    pub fn set_operand(&mut self, op: OpId, index: usize, new: ValueId) {
        let old = self.ops[op.0 as usize].operands[index];
        if old == new {
            return;
        }
        let uses = &mut self.values[old.0 as usize].uses;
        if let Some(pos) = uses
            .iter()
            .position(|u| u.op == op && u.index == index as u32)
        {
            uses.swap_remove(pos);
        }
        self.ops[op.0 as usize].operands[index] = new;
        self.values[new.0 as usize].uses.push(Use {
            op,
            index: index as u32,
        });
    }

    /// Append an operand to `op`.
    pub fn push_operand(&mut self, op: OpId, v: ValueId) {
        let index = self.ops[op.0 as usize].operands.len() as u32;
        self.ops[op.0 as usize].operands.push(v);
        self.values[v.0 as usize].uses.push(Use { op, index });
    }

    /// Replace every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        let uses = std::mem::take(&mut self.values[old.0 as usize].uses);
        for u in &uses {
            self.ops[u.op.0 as usize].operands[u.index as usize] = new;
        }
        self.values[new.0 as usize].uses.extend(uses);
    }

    pub fn has_uses(&self, v: ValueId) -> bool {
        !self.value(v).uses.is_empty()
    }

    /// Erase an op, its regions and everything inside them. Operand use-lists
    /// are maintained; results must be unused (checked with `debug_assert`).
    pub fn erase_op(&mut self, op: OpId) {
        self.detach_op(op);
        self.erase_op_inner(op);
    }

    fn erase_op_inner(&mut self, op: OpId) {
        let regions = self.ops[op.0 as usize].regions.clone();
        for r in regions {
            let blocks = self.regions[r.0 as usize].blocks.clone();
            // Erase blocks and ops in reverse order so uses are dropped
            // before the defining ops are checked for liveness.
            for b in blocks.into_iter().rev() {
                let ops = std::mem::take(&mut self.blocks[b.0 as usize].ops);
                for inner in ops.into_iter().rev() {
                    self.ops[inner.0 as usize].parent = None;
                    self.erase_op_inner(inner);
                }
                self.blocks[b.0 as usize].alive = false;
            }
            self.regions[r.0 as usize].alive = false;
        }
        // Drop this op's operand uses.
        let operands = std::mem::take(&mut self.ops[op.0 as usize].operands);
        for (i, v) in operands.into_iter().enumerate() {
            let uses = &mut self.values[v.0 as usize].uses;
            if let Some(pos) = uses.iter().position(|u| u.op == op && u.index == i as u32) {
                uses.swap_remove(pos);
            }
        }
        for &r in &self.ops[op.0 as usize].results.clone() {
            debug_assert!(
                self.values[r.0 as usize].uses.is_empty(),
                "erasing op {} with live uses of its results",
                self.op_name(op)
            );
        }
        if std::mem::replace(&mut self.ops[op.0 as usize].alive, false) {
            self.live_ops -= 1;
        }
    }

    // ---- attributes -------------------------------------------------------------

    pub fn get_attr(&self, op: OpId, key: &str) -> Option<AttrId> {
        // An op carries a handful of attributes: comparing their keys as
        // strings is cheaper than hashing `key` to find its `Istr` first.
        self.op(op)
            .attrs
            .iter()
            .find(|(k, _)| self.strings.get(*k) == key)
            .map(|(_, v)| *v)
    }

    pub fn set_attr(&mut self, op: OpId, key: &str, value: AttrId) {
        let k = self.intern(key);
        let attrs = &mut self.ops[op.0 as usize].attrs;
        if let Some(slot) = attrs.iter_mut().find(|(key, _)| *key == k) {
            slot.1 = value;
        } else {
            attrs.push((k, value));
        }
    }

    pub fn remove_attr(&mut self, op: OpId, key: &str) {
        if let Some(k) = self.strings.lookup(key) {
            self.ops[op.0 as usize].attrs.retain(|(key, _)| *key != k);
        }
    }

    pub fn attr_str_of(&self, op: OpId, key: &str) -> Option<&str> {
        self.get_attr(op, key).and_then(|a| self.attr_as_str(a))
    }

    pub fn attr_int_of(&self, op: OpId, key: &str) -> Option<i64> {
        self.get_attr(op, key).and_then(|a| self.attr_as_int(a))
    }

    pub fn has_attr(&self, op: OpId, key: &str) -> bool {
        self.get_attr(op, key).is_some()
    }

    // ---- navigation ---------------------------------------------------------------

    /// Single result of an op; panics if it does not have exactly one.
    pub fn result(&self, op: OpId) -> ValueId {
        debug_assert_eq!(self.op(op).results.len(), 1);
        self.op(op).results[0]
    }

    /// The op enclosing `op` (parent of its parent block), if any.
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.op(op).parent?;
        let region = self.block(block).parent?;
        self.region(region).parent
    }

    /// Entry (first) block of an op's region `idx`.
    pub fn entry_block(&self, op: OpId, idx: usize) -> BlockId {
        self.region(self.op(op).regions[idx]).blocks[0]
    }

    /// Find the defining op of a value, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value(v).def {
            Def::OpResult { op, .. } => Some(op),
            Def::BlockArg { .. } => None,
        }
    }

    /// Search a module-like op's single region for a symbol op
    /// (an op carrying `sym_name == name`).
    pub fn lookup_symbol(&self, module: OpId, name: &str) -> Option<OpId> {
        let region = *self.op(module).regions.first()?;
        for &block in &self.region(region).blocks {
            for &op in &self.block(block).ops {
                if self.attr_str_of(op, "sym_name") == Some(name) {
                    return Some(op);
                }
            }
        }
        None
    }

    // ---- cloning ---------------------------------------------------------------

    /// Deep-clone `op` (including regions). `value_map` maps values from the
    /// source environment to the destination; cloned ops' results and block
    /// args are added to it. Operands not present in the map are kept as-is
    /// (they must reference values visible at the destination).
    pub fn clone_op(&mut self, op: OpId, value_map: &mut HashMap<ValueId, ValueId>) -> OpId {
        let name = self.op(op).name;
        let attrs = self.op(op).attrs.clone();
        let operands: Vec<ValueId> = self
            .op(op)
            .operands
            .iter()
            .map(|v| *value_map.get(v).unwrap_or(v))
            .collect();
        let result_types: Vec<TypeId> = self
            .op(op)
            .results
            .iter()
            .map(|&r| self.value_ty(r))
            .collect();
        let src_regions = self.op(op).regions.clone();
        debug_assert!(
            self.op(op).successors.is_empty(),
            "clone_op does not support successor-carrying ops yet"
        );

        let mut new_regions = Vec::with_capacity(src_regions.len());
        for src_region in src_regions {
            let dst_region = self.new_region();
            let src_blocks = self.region(src_region).blocks.clone();
            for src_block in src_blocks {
                let arg_types: Vec<TypeId> = self
                    .block(src_block)
                    .args
                    .iter()
                    .map(|&a| self.value_ty(a))
                    .collect();
                let dst_block = self.new_block(dst_region, &arg_types);
                let src_args = self.block(src_block).args.clone();
                let dst_args = self.block(dst_block).args.clone();
                for (s, d) in src_args.into_iter().zip(dst_args) {
                    value_map.insert(s, d);
                }
                let src_ops = self.block(src_block).ops.clone();
                for inner in src_ops {
                    let cloned = self.clone_op(inner, value_map);
                    self.append_op(dst_block, cloned);
                }
            }
            new_regions.push(dst_region);
        }

        let new_op = OpId(self.ops.len() as u32);
        self.ops.push(OpData {
            name,
            operands: vec![],
            results: vec![],
            attrs,
            regions: new_regions.clone(),
            successors: vec![],
            parent: None,
            alive: true,
        });
        self.live_ops += 1;
        for r in new_regions {
            self.regions[r.0 as usize].parent = Some(new_op);
        }
        for (i, ty) in result_types.into_iter().enumerate() {
            let v = ValueId(self.values.len() as u32);
            self.values.push(ValueData {
                ty,
                def: Def::OpResult {
                    op: new_op,
                    index: i as u32,
                },
                uses: vec![],
            });
            self.ops[new_op.0 as usize].results.push(v);
        }
        for (i, operand) in operands.into_iter().enumerate() {
            self.ops[new_op.0 as usize].operands.push(operand);
            self.values[operand.0 as usize].uses.push(Use {
                op: new_op,
                index: i as u32,
            });
        }
        let old_results = self.op(op).results.clone();
        let new_results = self.op(new_op).results.clone();
        for (s, d) in old_results.into_iter().zip(new_results) {
            value_map.insert(s, d);
        }
        new_op
    }

    /// Number of live operations: every op created minus every op erased.
    pub fn live_op_count(&self) -> usize {
        self.live_ops
    }

    /// Blocks ever created, tombstones included: one past the largest
    /// `BlockId` index (the size of a dense side table keyed by block).
    pub fn block_capacity(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_module(ir: &mut Ir) -> (OpId, BlockId) {
        let region = ir.new_region();
        let block = ir.new_block(region, &[]);
        let module = ir.create_op(OpSpec::new("builtin.module").region(region));
        (module, block)
    }

    #[test]
    fn create_and_navigate() {
        let mut ir = Ir::new();
        let (module, block) = mk_module(&mut ir);
        let i32t = ir.i32t();
        let a1 = ir.attr_i32(1);
        let c1 = ir.create_op(
            OpSpec::new("arith.constant")
                .results(&[i32t])
                .attr("value", a1),
        );
        ir.append_op(block, c1);
        let v = ir.result(c1);
        let add = ir.create_op(OpSpec::new("arith.addi").operands(&[v, v]).results(&[i32t]));
        ir.append_op(block, add);
        assert_eq!(ir.parent_op(add), Some(module));
        assert_eq!(ir.value(v).uses.len(), 2);
        assert_eq!(ir.defining_op(v), Some(c1));
        assert_eq!(ir.op_name(add), "arith.addi");
    }

    #[test]
    fn rauw_and_erase() {
        let mut ir = Ir::new();
        let (_m, block) = mk_module(&mut ir);
        let i32t = ir.i32t();
        let a1 = ir.attr_i32(1);
        let a2 = ir.attr_i32(2);
        let c1 = ir.create_op(
            OpSpec::new("arith.constant")
                .results(&[i32t])
                .attr("value", a1),
        );
        let c2 = ir.create_op(
            OpSpec::new("arith.constant")
                .results(&[i32t])
                .attr("value", a2),
        );
        ir.append_op(block, c1);
        ir.append_op(block, c2);
        let v1 = ir.result(c1);
        let v2 = ir.result(c2);
        let add = ir.create_op(
            OpSpec::new("arith.addi")
                .operands(&[v1, v1])
                .results(&[i32t]),
        );
        ir.append_op(block, add);
        ir.replace_all_uses(v1, v2);
        assert!(!ir.has_uses(v1));
        assert_eq!(ir.value(v2).uses.len(), 2);
        assert_eq!(ir.op(add).operands, vec![v2, v2]);
        ir.erase_op(c1);
        assert!(!ir.op(c1).alive);
        assert_eq!(ir.block(block).ops.len(), 2);
    }

    #[test]
    fn set_operand_maintains_uses() {
        let mut ir = Ir::new();
        let (_m, block) = mk_module(&mut ir);
        let i32t = ir.i32t();
        let a = ir.attr_i32(1);
        let c1 = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
        let c2 = ir.create_op(OpSpec::new("c").results(&[i32t]).attr("value", a));
        ir.append_op(block, c1);
        ir.append_op(block, c2);
        let (v1, v2) = (ir.result(c1), ir.result(c2));
        let user = ir.create_op(OpSpec::new("u").operands(&[v1]));
        ir.append_op(block, user);
        ir.set_operand(user, 0, v2);
        assert!(!ir.has_uses(v1));
        assert_eq!(ir.value(v2).uses, vec![Use { op: user, index: 0 }]);
    }

    #[test]
    fn deep_clone_remaps_values() {
        let mut ir = Ir::new();
        let (_m, block) = mk_module(&mut ir);
        let i32t = ir.i32t();
        let region = ir.new_region();
        let inner_block = ir.new_block(region, &[i32t]);
        let arg = ir.block(inner_block).args[0];
        let use_op = ir.create_op(OpSpec::new("use").operands(&[arg]));
        ir.append_op(inner_block, use_op);
        let outer = ir.create_op(OpSpec::new("outer").region(region));
        ir.append_op(block, outer);

        let mut map = HashMap::new();
        let cloned = ir.clone_op(outer, &mut map);
        ir.append_op(block, cloned);
        let cloned_block = ir.entry_block(cloned, 0);
        let cloned_arg = ir.block(cloned_block).args[0];
        assert_ne!(cloned_arg, arg);
        let cloned_use = ir.block(cloned_block).ops[0];
        assert_eq!(ir.op(cloned_use).operands, vec![cloned_arg]);
        // Original untouched.
        assert_eq!(ir.op(use_op).operands, vec![arg]);
    }

    #[test]
    fn move_ops_splices_in_order_and_reparents() {
        let mut ir = Ir::new();
        let (_m, block) = mk_module(&mut ir);
        let region = ir.new_region();
        let body = ir.new_block(region, &[]);
        let names = |ir: &Ir, b: BlockId| -> Vec<String> {
            let ops = &ir.block(b).ops;
            ops.iter().map(|&o| ir.op_name(o).to_string()).collect()
        };
        for name in ["first", "holder", "last"] {
            let op = match name {
                "holder" => ir.create_op(OpSpec::new(name).region(region)),
                _ => ir.create_op(OpSpec::new(name)),
            };
            ir.append_op(block, op);
        }
        for name in ["a", "b", "end"] {
            let op = ir.create_op(OpSpec::new(name));
            ir.append_op(body, op);
        }
        // Inline all but the body's terminator in front of the holder.
        ir.move_ops(body, 0..2, block, 1);
        assert_eq!(names(&ir, block), ["first", "a", "b", "holder", "last"]);
        assert_eq!(names(&ir, body), ["end"]);
        let moved = ir.block(block).ops[1];
        assert_eq!(ir.op(moved).parent, Some(block));
        assert_eq!(ir.op_position(moved), Some((block, 1)));
    }

    #[test]
    fn live_counter_matches_arena_scan() {
        let scan = |ir: &Ir| ir.ops.iter().filter(|o| o.alive).count();
        let mut ir = Ir::new();
        let (_m, block) = mk_module(&mut ir);
        let i32t = ir.i32t();
        let region = ir.new_region();
        let inner_block = ir.new_block(region, &[i32t]);
        let arg = ir.block(inner_block).args[0];
        let use_op = ir.create_op(OpSpec::new("use").operands(&[arg]));
        ir.append_op(inner_block, use_op);
        let outer = ir.create_op(OpSpec::new("outer").region(region));
        ir.append_op(block, outer);
        assert_eq!(ir.live_op_count(), 3);
        assert_eq!(ir.live_op_count(), scan(&ir));

        let cloned = ir.clone_op(outer, &mut HashMap::new());
        ir.append_op(block, cloned);
        assert_eq!(ir.live_op_count(), 5);
        assert_eq!(ir.live_op_count(), scan(&ir));

        // Erasing takes the nested ops along; erasing twice counts once.
        ir.erase_op(outer);
        assert_eq!(ir.live_op_count(), 3);
        ir.erase_op(outer);
        assert_eq!(ir.live_op_count(), 3);
        assert_eq!(ir.live_op_count(), scan(&ir));
    }

    #[test]
    fn attr_mutation() {
        let mut ir = Ir::new();
        let (_m, block) = mk_module(&mut ir);
        let op = ir.create_op(OpSpec::new("x"));
        ir.append_op(block, op);
        let s = ir.attr_str("a");
        ir.set_attr(op, "name", s);
        assert_eq!(ir.attr_str_of(op, "name"), Some("a"));
        let s2 = ir.attr_str("b");
        ir.set_attr(op, "name", s2);
        assert_eq!(ir.attr_str_of(op, "name"), Some("b"));
        ir.remove_attr(op, "name");
        assert!(!ir.has_attr(op, "name"));
    }
}
