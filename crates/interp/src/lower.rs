//! Lowering from IR functions to the bytecode of [`crate::program`].
//!
//! Two passes per function: number every SSA value of the body (block
//! arguments and results of all nested regions) into a dense slot, then
//! emit pre-decoded instructions. Anything that would fail at run time in
//! an op-by-op interpreter (a constant of an unsupported type, a malformed
//! loop) lowers to a `Trap`, so the error still surfaces only if that op is
//! reached. Callees are registered when first referenced and lowered from
//! a worklist, so a `func.call` holds a resolved function index.
//!
//! Emission **value-numbers** as it goes. A constant equal in kind and bits
//! to an earlier one of the function shares its slot of the initial frame
//! image, and a pure scalar instruction (integer/float arithmetic, compares,
//! `select`, conversions) equal in kind and operand slots to one still in
//! scope — its own block or an enclosing one — emits nothing: its result is
//! aliased to the first one's slot. The first dominates the duplicate, so it
//! has already run on the same operands, and would already have failed if
//! the duplicate were going to. Loads are never numbered. The step budget is
//! charged in IR ops per block, so it does not see any of this.

use std::collections::HashMap;

use ftn_mlir::{BlockId, Ir, OpId, TypeId, TypeKind, ValueId, ValueTable};

use crate::program::{
    scalar_cell, tag, Alloc, CmpFPred, CmpIPred, ConvKind, Fallback, FloatOp, Function, Hook, If,
    Instr, IntOp, Loop, Program, Slot, SlotRange,
};
use crate::strip;
use crate::value::RtValue;

impl Program {
    /// Lower every symbol of `module`.
    pub fn lower_module(ir: &Ir, module: OpId) -> Program {
        let mut lowerer = Lowerer::new(ir, module);
        for op in module_ops(ir, module) {
            if let Some(name) = ir.attr_str_of(op, "sym_name") {
                lowerer.resolve(name);
            }
        }
        lowerer.finish()
    }

    /// Lower function `root` of `module` and everything it can call. An
    /// unknown `root` yields an empty program, so the call reports it.
    pub fn lower_reachable(ir: &Ir, module: OpId, root: &str) -> Program {
        let mut lowerer = Lowerer::new(ir, module);
        lowerer.resolve(root);
        lowerer.finish()
    }
}

fn module_ops(ir: &Ir, module: OpId) -> impl Iterator<Item = OpId> + '_ {
    ir.op(module)
        .regions
        .first()
        .into_iter()
        .flat_map(move |&r| &ir.region(r).blocks)
        .flat_map(move |&b| ir.block(b).ops.iter().copied())
}

struct Lowerer<'a> {
    ir: &'a Ir,
    module: OpId,
    /// Registered functions; `None` until the worklist reaches them.
    funcs: Vec<Option<Function>>,
    by_name: HashMap<String, usize>,
    pending: Vec<(usize, OpId)>,
    // Per-function tables, owned here so lowering a module allocates them
    // once; `FnLowerer::lower` clears them.
    slot_of: ValueTable<Slot>,
    /// Constants of the function so far, by (kind, bits).
    consts: HashMap<(u8, u64), Slot>,
    numbered: Numbered,
}

impl<'a> Lowerer<'a> {
    fn new(ir: &'a Ir, module: OpId) -> Self {
        Lowerer {
            ir,
            module,
            funcs: Vec::new(),
            by_name: HashMap::new(),
            pending: Vec::new(),
            slot_of: ValueTable::new(ir),
            consts: HashMap::new(),
            numbered: Numbered::default(),
        }
    }

    /// Index of function `name`, registering it for lowering on first use
    /// (the first symbol of that name, as `Ir::lookup_symbol` finds it).
    fn resolve(&mut self, name: &str) -> Option<usize> {
        if let Some(&index) = self.by_name.get(name) {
            return Some(index);
        }
        let op = self.ir.lookup_symbol(self.module, name)?;
        let index = self.funcs.len();
        self.funcs.push(None);
        self.by_name.insert(name.to_string(), index);
        self.pending.push((index, op));
        Some(index)
    }

    fn finish(mut self) -> Program {
        while let Some((index, op)) = self.pending.pop() {
            let function = FnLowerer::lower(&mut self, op);
            self.funcs[index] = Some(function);
        }
        Program {
            funcs: self
                .funcs
                .into_iter()
                .map(|f| f.expect("every registered function was lowered"))
                .collect(),
            by_name: self.by_name,
            scratch: Default::default(),
        }
    }
}

/// The pure instructions in scope, each keyed by itself with `dst` blanked
/// and filed under the first slot it reads: `heads[slot]` is the latest
/// entry filed there and `next` chains to the one before. The entry list is
/// its own undo log — a block's entries are the tail it pushed — and
/// nothing is hashed, so lowering a crafted module cannot make this
/// quadratic: a look-up gives up after [`Numbered::WALK`] entries, which
/// costs a missed duplicate, never a wrong one.
#[derive(Default)]
struct Numbered {
    heads: Vec<u32>,
    entries: Vec<NumberedEntry>,
}

struct NumberedEntry {
    key: Instr,
    dst: Slot,
    filed_under: Slot,
    next: u32,
}

impl Numbered {
    const NONE: u32 = u32::MAX;
    const WALK: usize = 16;

    fn filed_under(key: &Instr) -> Slot {
        let mut first = None;
        key.reads(|s| first = first.or(Some(s)));
        first.expect("pure instructions read something")
    }

    fn find(&self, key: &Instr) -> Option<Slot> {
        let mut at = *self.heads.get(Self::filed_under(key) as usize)?;
        for _ in 0..Self::WALK {
            let entry = self.entries.get(at as usize)?;
            if entry.key == *key {
                return Some(entry.dst);
            }
            at = entry.next;
        }
        None
    }

    fn push(&mut self, key: Instr, dst: Slot) {
        let filed_under = Self::filed_under(&key);
        if self.heads.len() <= filed_under as usize {
            self.heads.resize(filed_under as usize + 1, Self::NONE);
        }
        let head = &mut self.heads[filed_under as usize];
        self.entries.push(NumberedEntry {
            key,
            dst,
            filed_under,
            next: *head,
        });
        *head = self.entries.len() as u32 - 1;
    }

    fn open_scope(&self) -> usize {
        self.entries.len()
    }

    /// Forget everything pushed since `open_scope` returned `scope`.
    fn close_scope(&mut self, scope: usize) {
        for entry in self.entries.drain(scope..).rev() {
            self.heads[entry.filed_under as usize] = entry.next;
        }
    }
}

/// A message for a [`Instr::Trap`].
type Trap = String;

struct FnLowerer<'l, 'a> {
    ir: &'a Ir,
    program: &'l mut Lowerer<'a>,
    f: Function,
}

impl<'l, 'a> FnLowerer<'l, 'a> {
    fn lower(program: &'l mut Lowerer<'a>, func: OpId) -> Function {
        let ir = program.ir;
        let name = ir.attr_str_of(func, "sym_name").unwrap_or_default();
        program.slot_of.clear();
        program.consts.clear();
        let mut this = FnLowerer {
            ir,
            program,
            f: Function {
                name: name.to_string(),
                op: func,
                params: Vec::new(),
                tags: Vec::new(),
                vals: Vec::new(),
                entry_ops: 0,
                code: Vec::new(),
                slots: Vec::new(),
                loops: Vec::new(),
                ifs: Vec::new(),
                allocs: Vec::new(),
                hooks: Vec::new(),
                traps: Vec::new(),
            },
        };
        match this.entry_block(func, 0) {
            Some(entry) => {
                this.number_block(entry);
                this.f.params = this.slots_of(&ir.block(entry).args).expect("just numbered");
                this.f.entry_ops = this.lower_block(entry);
            }
            None => this.trap(format!("function '{name}' has no body")),
        }
        strip::plan(&mut this.f);
        this.f
    }

    fn entry_block(&self, op: OpId, region: usize) -> Option<BlockId> {
        let &region = self.ir.op(op).regions.get(region)?;
        self.ir.region(region).blocks.first().copied()
    }

    // ---- pass 1: slots ----------------------------------------------------------

    fn number(&mut self, v: ValueId) {
        let slot = self.f.tags.len() as Slot;
        self.f.tags.push(tag::UNIT);
        self.f.vals.push(0);
        self.program.slot_of.insert(v, slot);
    }

    fn number_block(&mut self, block: BlockId) {
        let ir = self.ir;
        for &arg in &ir.block(block).args {
            self.number(arg);
        }
        for &op in &ir.block(block).ops {
            for &result in &ir.op(op).results {
                self.number(result);
            }
            for &region in &ir.op(op).regions {
                for &inner in &ir.region(region).blocks {
                    self.number_block(inner);
                }
            }
        }
    }

    fn slots_of(&self, values: &[ValueId]) -> Result<Vec<Slot>, Trap> {
        values
            .iter()
            .map(|&v| self.program.slot_of.get(v))
            .collect::<Option<_>>()
            .ok_or_else(|| "value not bound in environment".to_string())
    }

    fn range(&mut self, slots: &[Slot]) -> SlotRange {
        let start = self.f.slots.len() as u32;
        self.f.slots.extend_from_slice(slots);
        SlotRange {
            start,
            len: slots.len() as u32,
        }
    }

    // ---- pass 2: code -----------------------------------------------------------

    fn emit(&mut self, instr: Instr) {
        self.f.code.push(instr);
    }

    /// Emit the pure scalar instruction `make(dst)` for the first result of
    /// `op` (slot `dst`) — or, when an equal one is in scope, alias the result
    /// to it.
    fn emit_pure(&mut self, op: OpId, dst: Slot, make: impl Fn(Slot) -> Instr) {
        let result = self.ir.op(op).results[0];
        let key = make(Slot::MAX);
        if let Some(first) = self.program.numbered.find(&key) {
            self.program.slot_of.insert(result, first);
            return;
        }
        self.emit(make(dst));
        self.program.numbered.push(key, dst);
    }

    /// Place constant `value`, the first result of `op` (slot `dst`), in the
    /// initial frame, or alias it to an equal constant already there.
    fn constant(&mut self, op: OpId, dst: Slot, value: RtValue) -> Result<(), Trap> {
        let cell = scalar_cell(&value).ok_or("constant is not a scalar")?;
        if let Some(&first) = self.program.consts.get(&cell) {
            self.program
                .slot_of
                .insert(self.ir.op(op).results[0], first);
            return Ok(());
        }
        (self.f.tags[dst as usize], self.f.vals[dst as usize]) = cell;
        self.program.consts.insert(cell, dst);
        Ok(())
    }

    fn trap(&mut self, message: Trap) {
        let index = self.f.traps.len() as u32;
        self.f.traps.push(message);
        self.emit(Instr::Trap(index));
    }

    /// Lower the ops of `block` in place; returns its op count (what entering
    /// it charges to the step budget).
    fn lower_block(&mut self, block: BlockId) -> u32 {
        let ir = self.ir;
        let scope = self.program.numbered.open_scope();
        for &op in &ir.block(block).ops {
            if let Err(message) = self.lower_op(op) {
                self.trap(message);
            }
        }
        // What this block numbered goes out of scope with it.
        self.program.numbered.close_scope(scope);
        ir.block(block).ops.len() as u32
    }

    /// Slots of the values `block`'s terminator yields.
    fn yielded(&self, block: BlockId) -> Result<Vec<Slot>, Trap> {
        match self.ir.block(block).ops.last() {
            Some(&term) if is_yield(self.ir.op_name(term)) => {
                self.slots_of(&self.ir.op(term).operands)
            }
            _ => Ok(vec![]),
        }
    }

    fn lower_op(&mut self, op: OpId) -> Result<(), Trap> {
        let ir = self.ir;
        let name = ir.op_name(op);
        let operands = |this: &Self| this.slots_of(&ir.op(op).operands);
        let results = self.slots_of(&ir.op(op).results)?;
        let result = |i: usize| {
            results
                .get(i)
                .copied()
                .ok_or_else(|| format!("op '{name}' has no result {i}"))
        };
        match name {
            // Terminators are read by the enclosing op; markers do nothing.
            n if is_yield(n) => {}
            "memref.dealloc"
            | "omp.target_enter_data"
            | "omp.target_exit_data"
            | "omp.target_update"
            | "hls.pipeline"
            | "hls.unroll"
            | "hls.interface" => {}
            "func.return" => {
                let values = operands(self)?;
                let values = self.range(&values);
                self.emit(Instr::Return(values));
            }

            "arith.constant" | "llvm.mlir.constant" => {
                let dst = result(0)?;
                self.constant(op, dst, eval_constant(ir, op)?)?;
            }
            "omp.bounds" => {
                let dst = result(0)? as usize;
                (self.f.tags[dst], self.f.vals[dst]) = (tag::OPAQUE, 0);
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
            | "arith.andi" | "arith.ori" | "arith.xori" | "arith.maxsi" | "arith.minsi" => {
                let [lhs, rhs] = arity(name, operands(self)?)?;
                let kind = match name {
                    "arith.addi" => IntOp::Add,
                    "arith.subi" => IntOp::Sub,
                    "arith.muli" => IntOp::Mul,
                    "arith.divsi" => IntOp::DivS,
                    "arith.remsi" => IntOp::RemS,
                    "arith.andi" => IntOp::And,
                    "arith.ori" => IntOp::Or,
                    "arith.xori" => IntOp::Xor,
                    "arith.maxsi" => IntOp::MaxS,
                    _ => IntOp::MinS,
                };
                self.emit_pure(op, result(0)?, |dst| Instr::IntBin {
                    op: kind,
                    dst,
                    lhs,
                    rhs,
                });
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maximumf"
            | "arith.minimumf" => {
                let [lhs, rhs] = arity(name, operands(self)?)?;
                let kind = match name {
                    "arith.addf" => FloatOp::Add,
                    "arith.subf" => FloatOp::Sub,
                    "arith.mulf" => FloatOp::Mul,
                    "arith.divf" => FloatOp::Div,
                    "arith.maximumf" => FloatOp::Max,
                    _ => FloatOp::Min,
                };
                self.emit_pure(op, result(0)?, |dst| Instr::FloatBin {
                    op: kind,
                    dst,
                    lhs,
                    rhs,
                });
            }
            "arith.negf" => {
                let [src] = arity(name, operands(self)?)?;
                self.emit_pure(op, result(0)?, |dst| Instr::NegF { dst, src });
            }
            "arith.cmpi" => {
                let [lhs, rhs] = arity(name, operands(self)?)?;
                let pred = match ir.attr_str_of(op, "predicate") {
                    Some("eq") => CmpIPred::Eq,
                    Some("ne") => CmpIPred::Ne,
                    Some("slt") => CmpIPred::Slt,
                    Some("sle") => CmpIPred::Sle,
                    Some("sgt") => CmpIPred::Sgt,
                    Some("sge") => CmpIPred::Sge,
                    Some(other) => return Err(format!("bad cmpi predicate {other}")),
                    None => return Err("cmpi without predicate".into()),
                };
                self.emit_pure(op, result(0)?, |dst| Instr::CmpI {
                    pred,
                    dst,
                    lhs,
                    rhs,
                });
            }
            "arith.cmpf" => {
                let [lhs, rhs] = arity(name, operands(self)?)?;
                let pred = match ir.attr_str_of(op, "predicate") {
                    Some("oeq") => CmpFPred::Oeq,
                    Some("one") => CmpFPred::One,
                    Some("olt") => CmpFPred::Olt,
                    Some("ole") => CmpFPred::Ole,
                    Some("ogt") => CmpFPred::Ogt,
                    Some("oge") => CmpFPred::Oge,
                    Some(other) => return Err(format!("bad cmpf predicate {other}")),
                    None => return Err("cmpf without predicate".into()),
                };
                self.emit_pure(op, result(0)?, |dst| Instr::CmpF {
                    pred,
                    dst,
                    lhs,
                    rhs,
                });
            }
            "arith.select" => {
                let [cond, on_true, on_false] = arity(name, operands(self)?)?;
                self.emit_pure(op, result(0)?, |dst| Instr::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                });
            }
            "arith.index_cast" | "arith.extsi" | "arith.trunci" | "fir.convert"
            | "arith.sitofp" | "arith.fptosi" | "arith.extf" | "arith.truncf" => {
                let [src] = arity(name, operands(self)?)?;
                let dst = result(0)?;
                let to = match ir.type_kind(ir.value_ty(ir.op(op).results[0])) {
                    TypeKind::Index => ConvKind::Index,
                    TypeKind::Integer { width: 1 } => ConvKind::I1,
                    TypeKind::Integer { width: 32 } => ConvKind::I32,
                    TypeKind::Integer { .. } => ConvKind::I64,
                    TypeKind::Float32 => ConvKind::F32,
                    TypeKind::Float64 => ConvKind::F64,
                    other => return Err(format!("unsupported conversion to {other:?}")),
                };
                self.emit_pure(op, dst, |dst| Instr::Convert { to, dst, src });
            }

            "memref.alloc" | "memref.alloca" | "fir.alloca" => {
                let sizes = operands(self)?;
                let dst = result(0)?;
                let TypeKind::MemRef {
                    shape,
                    elem,
                    memory_space,
                } = ir.type_kind(ir.value_ty(ir.op(op).results[0]))
                else {
                    return Err("alloc result is not a memref".into());
                };
                let alloc = Alloc {
                    dst,
                    shape: shape.clone(),
                    sizes: self.range(&sizes),
                    elem: elem_name(ir, *elem)?,
                    space: *memory_space,
                };
                let index = self.f.allocs.len() as u32;
                self.f.allocs.push(alloc);
                self.emit(Instr::Alloc(index));
            }
            // The payload of a declare / map_info is the variable's value.
            "fir.declare" | "omp.map_info" => {
                let operands = operands(self)?;
                let &src = operands
                    .first()
                    .ok_or_else(|| format!("op '{name}' expects an operand"))?;
                self.emit(Instr::Move {
                    dst: result(0)?,
                    src,
                });
            }
            "memref.load" | "fir.load" => {
                let operands = operands(self)?;
                let dst = result(0)?;
                match operands[..] {
                    [] => return Err(format!("op '{name}' expects a memref")),
                    [mem, idx] => self.emit(Instr::Load1 { dst, mem, idx }),
                    [mem, ..] => {
                        let idx = self.range(&operands[1..]);
                        self.emit(Instr::Load { dst, mem, idx });
                    }
                }
            }
            "memref.store" | "fir.store" => {
                let operands = operands(self)?;
                match operands[..] {
                    [] | [_] => return Err(format!("op '{name}' expects a value and a memref")),
                    [val, mem, idx] => self.emit(Instr::Store1 { val, mem, idx }),
                    [val, mem, ..] => {
                        let idx = self.range(&operands[2..]);
                        self.emit(Instr::Store { val, mem, idx });
                    }
                }
            }
            "memref.dim" => {
                let [mem, dim] = arity(name, operands(self)?)?;
                let dst = result(0)?;
                self.emit(Instr::Dim { dst, mem, dim });
            }
            "memref.copy" => {
                let [src, dst] = arity(name, operands(self)?)?;
                self.emit(Instr::Copy { src, dst });
            }
            "memref.dma_start" => {
                let args = operands(self)?;
                let fallback = if args.len() >= 2 {
                    Fallback::DmaCopy
                } else {
                    Fallback::Error("memref.dma_start expects source and destination".into())
                };
                self.hook(op, &args, &results, fallback);
            }
            "memref.wait" => {
                let args = operands(self)?;
                self.hook(op, &args, &[], Fallback::Ignore);
            }

            "scf.for" => self.lower_loop(op, "scf.for", false, true)?,
            "omp.wsloop" => self.lower_loop(op, "omp.wsloop", true, true)?,
            "fir.do_loop" => self.lower_loop(op, "fir.do_loop", true, false)?,
            "scf.if" | "fir.if" => self.lower_if(op, &results)?,

            // Pre-lowering OpenMP semantics: the regions run inline.
            "omp.target" => {
                let args = operands(self)?;
                let block = self.entry_block(op, 0).ok_or("omp.target has no body")?;
                let params = self.slots_of(&ir.block(block).args)?;
                self.emit(Instr::Charge(ir.block(block).ops.len() as u32));
                for (&dst, &src) in params.iter().zip(&args) {
                    self.emit(Instr::Move { dst, src });
                }
                self.lower_block(block);
            }
            "omp.target_data" => {
                let block = self
                    .entry_block(op, 0)
                    .ok_or("omp.target_data has no body")?;
                self.emit(Instr::Charge(ir.block(block).ops.len() as u32));
                self.lower_block(block);
            }

            "hls.axi_protocol" => {
                let [src] = arity(name, operands(self)?)?;
                self.emit_pure(op, result(0)?, |dst| Instr::AxiProtocol { dst, src });
            }

            "func.call" | "fir.call" => {
                let args = operands(self)?;
                let fallback = match ir.attr_str_of(op, "callee") {
                    None => Fallback::Error("call without callee".into()),
                    Some(callee) => match self.program.resolve(callee) {
                        Some(index) => Fallback::Call(index),
                        None => Fallback::Error(format!("no function '{callee}' in module")),
                    },
                };
                self.hook(op, &args, &results, fallback);
            }

            // Everything else belongs to the dialect hooks.
            _ => {
                let args = operands(self)?;
                let fallback = Fallback::Error(format!("unhandled op '{name}'"));
                self.hook(op, &args, &results, fallback);
            }
        }
        Ok(())
    }

    fn hook(&mut self, op: OpId, args: &[Slot], results: &[Slot], fallback: Fallback) {
        let hook = Hook {
            op,
            args: self.range(args),
            results: self.range(results),
            fallback,
        };
        let index = self.f.hooks.len() as u32;
        self.f.hooks.push(hook);
        self.emit(Instr::Hook(index));
    }

    /// `carries`: the loop has iter-args (`fir.do_loop` has none).
    fn lower_loop(
        &mut self,
        op: OpId,
        name: &'static str,
        inclusive: bool,
        carries: bool,
    ) -> Result<(), Trap> {
        let ir = self.ir;
        let operands = self.slots_of(&ir.op(op).operands)?;
        let block = self
            .entry_block(op, 0)
            .ok_or_else(|| format!("{name} has no body"))?;
        let args = self.slots_of(&ir.block(block).args)?;
        let (&[lb, ub, step], Some(&iv)) = (
            operands
                .get(..3)
                .ok_or_else(|| format!("{name} expects lb, ub and step"))?,
            args.first(),
        ) else {
            return Err(format!("{name} body takes the induction variable"));
        };
        let (inits, iter_args, yields, results) = if carries {
            (
                &operands[3..],
                &args[1..],
                self.yielded(block)?,
                self.slots_of(&ir.op(op).results)?,
            )
        } else {
            (&[][..], &[][..], vec![], vec![])
        };
        let n = results.len();
        if inits.len() != n || iter_args.len() != n || yields.len() != n {
            return Err(format!(
                "{name} carries {} inits, {} block arguments and {} yields for {n} results",
                inits.len(),
                iter_args.len(),
                yields.len()
            ));
        }
        let index = self.f.loops.len();
        let lowered = Loop {
            op,
            name,
            inclusive,
            lb,
            ub,
            step,
            iv,
            inits: self.range(inits),
            args: self.range(iter_args),
            yields: self.range(&yields),
            results: self.range(&results),
            body_ops: 0,
            end: 0,
            strip: None,
        };
        let yields = lowered.yields;
        self.f.loops.push(lowered);
        self.emit(Instr::Loop(index as u32));
        let body_ops = self.lower_block(block);
        let end = self.f.code.len() as u32;
        let lowered = &mut self.f.loops[index];
        (lowered.body_ops, lowered.end) = (body_ops, end);
        // Lowering the body may have aliased a yielded value to an earlier
        // equal one; the slots read above only fixed the count.
        if carries {
            let start = yields.start as usize;
            let now = self.yielded(block)?;
            self.f.slots[start..start + now.len()].copy_from_slice(&now);
        }
        Ok(())
    }

    fn lower_if(&mut self, op: OpId, results: &[Slot]) -> Result<(), Trap> {
        let ir = self.ir;
        let name = ir.op_name(op);
        let operands = self.slots_of(&ir.op(op).operands)?;
        let &cond = operands
            .first()
            .ok_or_else(|| format!("op '{name}' expects a condition"))?;
        let index = self.f.ifs.len();
        let results_range = self.range(results);
        self.f.ifs.push(If {
            cond,
            then_ops: 0,
            else_ops: 0,
            else_start: 0,
            end: 0,
            then_yields: SlotRange::default(),
            else_yields: SlotRange::default(),
            results: results_range,
        });
        self.emit(Instr::If(index as u32));
        let (then_ops, then_yields) = self.lower_branch(op, 0, results.len());
        let else_start = self.f.code.len() as u32;
        let (else_ops, else_yields) = self.lower_branch(op, 1, results.len());
        let end = self.f.code.len() as u32;
        let lowered = &mut self.f.ifs[index];
        (lowered.then_ops, lowered.then_yields) = (then_ops, then_yields);
        (lowered.else_ops, lowered.else_yields) = (else_ops, else_yields);
        (lowered.else_start, lowered.end) = (else_start, end);
        Ok(())
    }

    /// One branch of an if: its op count and yield slots. A branch that
    /// cannot supply the results traps at its end, after its side effects.
    fn lower_branch(&mut self, op: OpId, region: usize, results: usize) -> (u32, SlotRange) {
        let Some(block) = self.entry_block(op, region) else {
            self.trap(format!(
                "op '{}' has no region {region}",
                self.ir.op_name(op)
            ));
            return (0, SlotRange::default());
        };
        let ops = self.lower_block(block);
        let yields = match self.yielded(block) {
            Ok(yields) if yields.len() == results => yields,
            Ok(yields) => {
                self.trap(format!(
                    "op '{}' produced {} values for {results} results",
                    self.ir.op_name(op),
                    yields.len()
                ));
                vec![]
            }
            Err(message) => {
                self.trap(message);
                vec![]
            }
        };
        (ops, self.range(&yields))
    }
}

fn is_yield(name: &str) -> bool {
    matches!(
        name,
        "scf.yield" | "omp.yield" | "fir.result" | "omp.terminator"
    )
}

/// The first `N` operands of op `name`.
fn arity<const N: usize>(name: &str, operands: Vec<Slot>) -> Result<[Slot; N], Trap> {
    operands
        .get(..N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| format!("op '{name}' expects {N} operands"))
}

fn elem_name(ir: &Ir, elem: TypeId) -> Result<&'static str, Trap> {
    Ok(match ir.type_kind(elem) {
        TypeKind::Float32 => "f32",
        TypeKind::Float64 => "f64",
        TypeKind::Integer { width: 1 } => "i1",
        TypeKind::Integer { width: 32 } => "i32",
        TypeKind::Integer { .. } => "i64",
        TypeKind::Index => "index",
        other => return Err(format!("bad memref element {other:?}")),
    })
}

fn eval_constant(ir: &Ir, op: OpId) -> Result<RtValue, Trap> {
    let attr = ir.get_attr(op, "value").ok_or("constant without value")?;
    let int = |what: &str| {
        ir.attr_as_int(attr)
            .ok_or_else(|| format!("{what} constant with non-int attr"))
    };
    let float = || {
        ir.attr_as_float(attr)
            .ok_or("float constant with non-float attr")
    };
    Ok(match ir.type_kind(ir.value_ty(ir.op(op).results[0])) {
        TypeKind::Integer { width: 1 } => RtValue::I1(int("int")? != 0),
        TypeKind::Integer { width: 32 } => RtValue::I32(int("int")? as i32),
        TypeKind::Integer { .. } => RtValue::I64(int("int")?),
        TypeKind::Index => RtValue::Index(int("index")?),
        TypeKind::Float32 => RtValue::F32(float()? as f32),
        TypeKind::Float64 => RtValue::F64(float()?),
        other => return Err(format!("constant of type {other:?}")),
    })
}
