//! The IR arena: owns every operation, block, region and value.
//!
//! Layout follows the classic compiler-arena idiom from the Rust performance
//! guides: entities live in flat `Vec`s, are addressed by `u32` newtype ids and
//! never move. Erasure marks entities dead (tombstones); the arena is
//! short-lived per compilation so space is not reclaimed.

use std::collections::HashMap;

use crate::attrs::{AttrId, AttrKind};
use crate::intern::{Interner, Istr, ShortKeyMap};
use crate::small_list::SmallList;
use crate::types::{TypeId, TypeKind};

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct OpId(pub(crate) u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct BlockId(pub(crate) u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct RegionId(pub(crate) u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Use {
    pub op: OpId,
    pub index: u32,
}

/// An operation. Its lists live inline up to the bounds below and spill to
/// the heap past them. Sampled over the compiled corpus, 94–99.5 % of ops
/// have at most 2 operands, 99.9 % at most 1 result and 99 % at most 2
/// attributes. Each bound is the most that fits in the room a spilled
/// list's `Vec` takes anyway (three `u32` ids, three attribute pairs).
#[derive(Debug)]
pub struct OpData {
    pub name: Istr,
    pub operands: SmallList<ValueId, 3>,
    pub results: SmallList<ValueId, 3>,
    pub attrs: SmallList<(Istr, AttrId), 3>,
    pub regions: SmallList<RegionId, 3>,
    pub successors: SmallList<BlockId, 3>,
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

/// A value. 94–97 % of results have at most 2 uses; a third fits in the
/// same room.
#[derive(Debug)]
pub struct ValueData {
    pub ty: TypeId,
    pub def: Def,
    pub uses: SmallList<Use, 3>,
}

/// Specification for creating an operation via [`Ir::create_op`] or
/// [`crate::Builder`]. Regions must be created beforehand with
/// [`Ir::new_region`]. A spec borrows its operand, result-type and
/// successor lists and keeps up to three attributes and regions inline, so
/// building one allocates nothing.
pub struct OpSpec<'a> {
    pub name: &'a str,
    pub operands: &'a [ValueId],
    pub result_types: &'a [TypeId],
    pub attrs: SmallList<(&'a str, AttrId), 3>,
    pub regions: SmallList<RegionId, 3>,
    pub successors: &'a [BlockId],
}

impl<'a> OpSpec<'a> {
    pub fn new(name: &'a str) -> Self {
        OpSpec {
            name,
            operands: &[],
            result_types: &[],
            attrs: SmallList::new(),
            regions: SmallList::new(),
            successors: &[],
        }
    }

    pub fn operands(mut self, operands: &'a [ValueId]) -> Self {
        self.operands = operands;
        self
    }

    pub fn results(mut self, result_types: &'a [TypeId]) -> Self {
        self.result_types = result_types;
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

    pub fn successors(mut self, succs: &'a [BlockId]) -> Self {
        self.successors = succs;
        self
    }
}

/// The IR context and arena. See module docs.
pub struct Ir {
    pub(crate) strings: Interner,
    pub(crate) types: Vec<TypeKind>,
    pub(crate) type_map: ShortKeyMap<TypeKind, TypeId>,
    pub(crate) attrs: Vec<AttrKind>,
    pub(crate) attr_map: ShortKeyMap<AttrKind, AttrId>,
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
            type_map: ShortKeyMap::default(),
            attrs: Vec::new(),
            attr_map: ShortKeyMap::default(),
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
            args: Vec::with_capacity(arg_types.len()),
            ops: vec![],
            parent: Some(region),
            alive: true,
        });
        for &ty in arg_types {
            self.add_block_arg(id, ty);
        }
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Append an extra argument to an existing block.
    pub fn add_block_arg(&mut self, block: BlockId, ty: TypeId) -> ValueId {
        let index = self.block(block).args.len() as u32;
        let v = self.new_value(ty, Def::BlockArg { block, index });
        self.block_mut(block).args.push(v);
        v
    }

    fn new_value(&mut self, ty: TypeId, def: Def) -> ValueId {
        let v = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            ty,
            def,
            uses: SmallList::new(),
        });
        v
    }

    /// Push `data` as op `id`: record its operand uses and adopt its regions.
    fn push_op(&mut self, id: OpId, data: OpData) {
        debug_assert_eq!(id.index(), self.ops.len());
        for (index, &v) in (0..).zip(data.operands.iter()) {
            self.values[v.0 as usize].uses.push(Use { op: id, index });
        }
        for &r in &data.regions {
            self.regions[r.0 as usize].parent = Some(id);
        }
        self.ops.push(data);
        self.live_ops += 1;
    }

    /// Create a detached operation (not yet inserted into a block).
    pub fn create_op(&mut self, spec: OpSpec) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let mut results = SmallList::new();
        for (index, &ty) in (0..).zip(spec.result_types) {
            results.push(self.new_value(ty, Def::OpResult { op: id, index }));
        }
        let strings = &mut self.strings;
        let data = OpData {
            name: strings.intern(spec.name),
            operands: SmallList::from_slice(spec.operands),
            results,
            attrs: spec
                .attrs
                .iter()
                .map(|&(k, v)| (strings.intern(k), v))
                .collect(),
            regions: spec.regions,
            successors: SmallList::from_slice(spec.successors),
            parent: None,
            alive: true,
        };
        self.push_op(id, data);
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
        self.values[new.0 as usize].uses.extend_from_slice(&uses);
    }

    pub fn has_uses(&self, v: ValueId) -> bool {
        !self.value(v).uses.is_empty()
    }

    /// Erase an op, its regions and everything inside them. Operand use-lists
    /// are maintained; results must be unused, which [`crate::verify`]
    /// checks: a use of an erased op's result is rejected there.
    pub fn erase_op(&mut self, op: OpId) {
        self.detach_op(op);
        self.erase_op_inner(op);
    }

    fn erase_op_inner(&mut self, op: OpId) {
        for ri in 0..self.ops[op.0 as usize].regions.len() {
            let r = self.ops[op.0 as usize].regions[ri].0 as usize;
            // Erase blocks and ops in reverse order so uses are dropped
            // before their defining ops go.
            for bi in (0..self.regions[r].blocks.len()).rev() {
                let b = self.regions[r].blocks[bi].0 as usize;
                let ops = std::mem::take(&mut self.blocks[b].ops);
                for &inner in ops.iter().rev() {
                    self.ops[inner.0 as usize].parent = None;
                    self.erase_op_inner(inner);
                }
                self.blocks[b].alive = false;
            }
            self.regions[r].alive = false;
        }
        // Drop this op's operand uses.
        let operands = std::mem::take(&mut self.ops[op.0 as usize].operands);
        for (index, v) in (0..).zip(operands.iter()) {
            let uses = &mut self.values[v.0 as usize].uses;
            if let Some(pos) = uses.iter().position(|&u| u == Use { op, index }) {
                uses.swap_remove(pos);
            }
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
    /// (they must reference values visible at the destination). A successor
    /// naming a block of a cloned region names that block's clone; any
    /// other successor is kept as-is.
    pub fn clone_op(&mut self, op: OpId, value_map: &mut HashMap<ValueId, ValueId>) -> OpId {
        self.clone_in(op, value_map, None)
    }

    /// [`Ir::clone_op`] of an op that sits in region `scope.0` and whose
    /// clone goes into `scope.1`, a clone of that region.
    fn clone_in(
        &mut self,
        op: OpId,
        value_map: &mut HashMap<ValueId, ValueId>,
        scope: Option<(RegionId, RegionId)>,
    ) -> OpId {
        let src = op.0 as usize;
        let mut regions = SmallList::new();
        for ri in 0..self.ops[src].regions.len() {
            let from = self.ops[src].regions[ri];
            let to = self.new_region();
            // Every block before any op, so a branch finds its target's clone.
            let n_blocks = self.region(from).blocks.len();
            for bi in 0..n_blocks {
                let block = self.region(from).blocks[bi];
                let clone = self.new_block(to, &[]);
                for ai in 0..self.block(block).args.len() {
                    let arg = self.block(block).args[ai];
                    let arg_clone = self.add_block_arg(clone, self.value_ty(arg));
                    value_map.insert(arg, arg_clone);
                }
            }
            for bi in 0..n_blocks {
                let (block, clone) = (self.region(from).blocks[bi], self.region(to).blocks[bi]);
                for oi in 0..self.block(block).ops.len() {
                    let inner = self.block(block).ops[oi];
                    let cloned = self.clone_in(inner, value_map, Some((from, to)));
                    self.append_op(clone, cloned);
                }
            }
            regions.push(to);
        }

        let new_op = OpId(self.ops.len() as u32);
        let mut results = SmallList::new();
        for index in 0..self.ops[src].results.len() as u32 {
            let old = self.ops[src].results[index as usize];
            let new = self.new_value(self.value_ty(old), Def::OpResult { op: new_op, index });
            results.push(new);
            value_map.insert(old, new);
        }
        let data = &self.ops[src];
        let successors = data
            .successors
            .iter()
            .map(|&b| match scope {
                Some((from, to)) => match self.region(from).blocks.iter().position(|&x| x == b) {
                    Some(i) => self.region(to).blocks[i],
                    None => b,
                },
                None => b,
            })
            .collect();
        let data = OpData {
            name: data.name,
            operands: data
                .operands
                .iter()
                .map(|v| *value_map.get(v).unwrap_or(v))
                .collect(),
            results,
            attrs: data.attrs.clone(),
            regions,
            successors,
            parent: None,
            alive: true,
        };
        self.push_op(new_op, data);
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
    fn clone_remaps_successors_to_the_cloned_blocks() {
        // holder { ^bb0: %c = c; cf.cond_br(%c)[^bb1, ^bb1]
        //          ^bb1: u(%c); cf.br[^bb1] }
        let mut ir = Ir::new();
        let (module, block) = mk_module(&mut ir);
        let i1 = ir.i1();
        let region = ir.new_region();
        let b0 = ir.new_block(region, &[]);
        let b1 = ir.new_block(region, &[]);
        let c = ir.create_op(OpSpec::new("c").results(&[i1]));
        ir.append_op(b0, c);
        let v = ir.result(c);
        let fork = ir.create_op(
            OpSpec::new("cf.cond_br")
                .operands(&[v])
                .successors(&[b1, b1]),
        );
        ir.append_op(b0, fork);
        let u = ir.create_op(OpSpec::new("u").operands(&[v]));
        ir.append_op(b1, u);
        let back = ir.create_op(OpSpec::new("cf.br").successors(&[b1]));
        ir.append_op(b1, back);
        let holder = ir.create_op(OpSpec::new("holder").region(region));
        ir.append_op(block, holder);

        let mut map = HashMap::new();
        let cloned = ir.clone_op(holder, &mut map);
        ir.append_op(block, cloned);
        crate::verify(&ir, module, &crate::VerifierRegistry::new()).unwrap();

        let blocks = ir.region(ir.op(cloned).regions[0]).blocks.clone();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|b| ![b0, b1].contains(b)));
        let terminator = |b: BlockId| *ir.block(b).ops.last().unwrap();
        assert_eq!(ir.op(terminator(blocks[0])).successors, vec![blocks[1]; 2]);
        assert_eq!(ir.op(terminator(blocks[1])).successors, vec![blocks[1]]);
        let cloned_use = ir.block(blocks[1]).ops[0];
        assert_eq!(ir.op(cloned_use).operands, vec![map[&v]]);
        // The source still branches to its own blocks.
        assert_eq!(ir.op(fork).successors, vec![b1, b1]);
        assert_eq!(ir.op(back).successors, vec![b1]);
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
