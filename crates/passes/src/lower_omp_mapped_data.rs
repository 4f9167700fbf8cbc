//! `lower-omp-mapped-data` — **the paper's first contribution pass** (§3).
//!
//! Converts OpenMP data-mapping IR (`omp.map_info`, `omp.target_data`,
//! `omp.target_enter_data` / `exit_data` / `update`, and the map operands of
//! `omp.target`) into `device` dialect data-management ops. Presence of data
//! on the device is tracked by a per-identifier counter in the runtime
//! (`data_acquire` increments, `data_release` decrements,
//! `data_check_exists` tests > 0); the pass emits conditionals around
//! `device.alloc` / `device.lookup` / `memref.dma_start` / `memref.wait` so
//! nested data regions and `tofrom::implicit` maps behave per OpenMP
//! semantics (Listing 1 discussion).
//!
//! On entry to a construct, per mapped variable:
//! ```text
//! %exists = device.data_check_exists {name}
//! %absent = arith.xori %exists, true
//! scf.if %absent { %d = device.alloc ...; dma host->dev if copies-in }
//! device.data_acquire {name}
//! %dev = device.lookup {name}
//! ```
//! and on exit:
//! ```text
//! device.data_release {name}
//! %still = device.data_check_exists {name}
//! %done = arith.xori %still, true
//! scf.if %done { dma dev->host if copies-out }
//! ```

use std::collections::HashMap;

use ftn_dialects::{arith, device, memref, omp, scf};
use ftn_mlir::{Builder, Ir, OpId, Pass, PassError, TypeId, ValueId};

/// Number of HBM banks available for round-robin placement (U280 has 16).
pub const HBM_BANKS: u32 = 16;

/// See module docs.
#[derive(Default)]
pub struct LowerOmpMappedDataPass {
    /// Stable identifier → memory-space assignment (round-robin HBM banks).
    spaces: HashMap<String, u32>,
}

impl LowerOmpMappedDataPass {
    pub fn new() -> Self {
        Self::default()
    }

    fn space_for(&mut self, name: &str) -> u32 {
        let next = (self.spaces.len() as u32 % HBM_BANKS) + 1;
        *self.spaces.entry(name.to_string()).or_insert(next)
    }
}

impl Pass for LowerOmpMappedDataPass {
    fn name(&self) -> &str {
        "lower-omp-mapped-data"
    }

    fn description(&self) -> &str {
        "omp mapped data -> device data ops (this work)"
    }

    fn run(&mut self, ir: &mut Ir, module: OpId) -> Result<(), PassError> {
        self.run_impl(ir, module).map_err(|message| PassError {
            pass: "lower-omp-mapped-data".into(),
            message,
        })
    }
}

struct MapEntry {
    host_var: ValueId,
    name: String,
    map_type: omp::MapType,
    space: u32,
}

/// The five constructs that carry map operands.
#[derive(Clone, Copy)]
enum DataConstruct {
    TargetData,
    EnterData,
    ExitData,
    Update,
    Target,
}

impl DataConstruct {
    fn of(op_name: &str) -> Option<Self> {
        Some(match op_name {
            omp::TARGET_DATA => DataConstruct::TargetData,
            omp::TARGET_ENTER_DATA => DataConstruct::EnterData,
            omp::TARGET_EXIT_DATA => DataConstruct::ExitData,
            omp::TARGET_UPDATE => DataConstruct::Update,
            omp::TARGET => DataConstruct::Target,
            _ => return None,
        })
    }
}

impl LowerOmpMappedDataPass {
    fn run_impl(&mut self, ir: &mut Ir, module: OpId) -> Result<(), String> {
        // One pre-order snapshot is the order "outermost remaining construct
        // first" would visit them in: lowering creates no new construct, and
        // the ones a `target_data` body exposes when it is inlined are its
        // descendants, which pre-order lists right after it. The HBM-bank
        // round-robin in `space_for` depends on this order.
        let constructs: Vec<(OpId, DataConstruct)> = ftn_mlir::walk_preorder(ir, module)
            .into_iter()
            .filter_map(|o| Some((o, DataConstruct::of(ir.op_name(o))?)))
            .collect();
        for (op, kind) in constructs {
            if !ir.op(op).alive || ir.has_attr(op, "data_lowered") {
                continue;
            }
            match kind {
                DataConstruct::TargetData => self.lower_target_data(ir, op)?,
                DataConstruct::EnterData => self.lower_enter_exit(ir, op, true)?,
                DataConstruct::ExitData => self.lower_enter_exit(ir, op, false)?,
                DataConstruct::Update => self.lower_update(ir, op)?,
                DataConstruct::Target => self.lower_target(ir, op)?,
            }
        }
        Ok(())
    }

    fn map_entries(&mut self, ir: &Ir, op: OpId) -> Vec<MapEntry> {
        omp::map_info_ops(ir, op)
            .into_iter()
            .map(|mi| {
                let name = omp::map_info_name(ir, mi).to_string();
                MapEntry {
                    host_var: omp::map_info_var(ir, mi),
                    map_type: omp::map_info_type(ir, mi),
                    space: self.space_for(&name),
                    name,
                }
            })
            .collect()
    }

    fn lower_target(&mut self, ir: &mut Ir, target: OpId) -> Result<(), String> {
        let entries = self.map_entries(ir, target);
        let n_maps = entries.len();
        let map_info_values: Vec<ValueId> = ir.op(target).operands[..n_maps].to_vec();
        // Entry protocol before the target; collect device memrefs. The
        // builder stays just before the target, so it knows its position.
        let (block, pos) = ir.op_position(target).expect("target in block");
        let mut b = Builder::at(ir, block, pos);
        let mut dev_vals = Vec::with_capacity(n_maps);
        for e in &entries {
            let dev = emit_entry(&mut b, e, true)?;
            dev_vals.push(dev.expect("entry with lookup"));
        }
        let after_target = b.insertion_pos() + 1;
        // Swap map_info operands for device memrefs; retype block args.
        let region_args = ir.block(ir.entry_block(target, 0)).args.clone();
        for (i, dev) in dev_vals.iter().enumerate() {
            ir.set_operand(target, i, *dev);
            let dev_ty = ir.value_ty(*dev);
            ir.set_value_type(region_args[i], dev_ty);
        }
        // Exit protocol after the target, each in front of the previous one.
        for e in entries.iter().rev() {
            let mut b = Builder::at(ir, block, after_target);
            emit_exit(&mut b, e)?;
        }
        erase_unused_map_infos(ir, map_info_values);
        // Mark as processed so the driver skips it if it meets it again.
        let unit = ir.attr_unit();
        ir.set_attr(target, "data_lowered", unit);
        Ok(())
    }

    fn lower_target_data(&mut self, ir: &mut Ir, td: OpId) -> Result<(), String> {
        let entries = self.map_entries(ir, td);
        let map_info_values: Vec<ValueId> = ir.op(td).operands.to_vec();
        // Everything goes just before the construct, in order: the entries,
        // the inlined body (all but the omp.terminator), the exits.
        let mut b = Builder::before(ir, td);
        for e in &entries {
            emit_entry(&mut b, e, false)?;
        }
        let body = b.ir.entry_block(td, 0);
        let body_len = b.ir.block(body).ops.len();
        let has_terminator =
            b.ir.block(body)
                .ops
                .last()
                .is_some_and(|&last| b.ir.op_is(last, omp::TERMINATOR));
        let inlined = body_len - usize::from(has_terminator);
        let (block, pos) = (b.insertion_block(), b.insertion_pos());
        b.ir.move_ops(body, 0..inlined, block, pos);
        b.set_insertion_point(block, pos + inlined);
        for e in entries.iter().rev() {
            emit_exit(&mut b, e)?;
        }
        ir.erase_op(td);
        erase_unused_map_infos(ir, map_info_values);
        Ok(())
    }

    fn lower_enter_exit(&mut self, ir: &mut Ir, op: OpId, is_enter: bool) -> Result<(), String> {
        let entries = self.map_entries(ir, op);
        let map_info_values: Vec<ValueId> = ir.op(op).operands.to_vec();
        let mut b = Builder::before(ir, op);
        for e in &entries {
            if is_enter {
                emit_entry(&mut b, e, false)?;
            } else {
                emit_exit(&mut b, e)?;
            }
        }
        ir.erase_op(op);
        erase_unused_map_infos(ir, map_info_values);
        Ok(())
    }

    fn lower_update(&mut self, ir: &mut Ir, op: OpId) -> Result<(), String> {
        let from_device = match ir.attr_str_of(op, "motion") {
            Some(motion) => motion == "from",
            None => return Err("target_update without motion".into()),
        };
        let entries = self.map_entries(ir, op);
        let map_info_values: Vec<ValueId> = ir.op(op).operands.to_vec();
        let mut b = Builder::before(ir, op);
        for e in &entries {
            let dev_ty = b.ir.memref_in_space(b.ir.value_ty(e.host_var), e.space);
            let dev = device::build_lookup(&mut b, dev_ty, &e.name, e.space);
            if from_device {
                memref::transfer(&mut b, dev, e.host_var);
            } else {
                memref::transfer(&mut b, e.host_var, dev);
            }
        }
        ir.erase_op(op);
        erase_unused_map_infos(ir, map_info_values);
        Ok(())
    }
}

/// Map infos whose construct is gone are dead once nothing else uses them.
fn erase_unused_map_infos(ir: &mut Ir, map_info_values: Vec<ValueId>) {
    for v in map_info_values {
        if !ir.has_uses(v) {
            if let Some(def) = ir.defining_op(v) {
                ir.erase_op(def);
            }
        }
    }
}

/// Emit the entry protocol for one mapped variable. Returns the device memref
/// (`device.lookup` result) when `with_lookup` is set.
fn emit_entry(b: &mut Builder, e: &MapEntry, with_lookup: bool) -> Result<Option<ValueId>, String> {
    let host_ty = b.ir.value_ty(e.host_var);
    if !b.ir.type_kind(host_ty).is_memref() {
        return Err(format!("mapped variable '{}' is not a memref", e.name));
    }
    let dev_ty: TypeId = b.ir.memref_in_space(host_ty, e.space);
    let exists = device::build_data_check_exists(b, &e.name);
    let absent = arith::not(b, exists);
    let host_var = e.host_var;
    let name = e.name.clone();
    let space = e.space;
    let copies_in = e.map_type.copies_in();
    let shape: Vec<i64> = b.ir.memref_shape(host_ty).to_vec();
    scf::build_if(
        b,
        absent,
        &[],
        |then_b| {
            // Dynamic extents come from the host memref.
            let mut dyn_sizes = Vec::new();
            for (i, d) in shape.iter().enumerate() {
                if *d == ftn_mlir::types::DYN_DIM {
                    let ci = arith::const_index(then_b, i as i64);
                    dyn_sizes.push(memref::dim(then_b, host_var, ci));
                }
            }
            let dev = device::build_alloc(then_b, dev_ty, &dyn_sizes, &name, space);
            if copies_in {
                memref::transfer(then_b, host_var, dev);
            }
            vec![]
        },
        |_| vec![],
    );
    device::build_data_acquire(b, &e.name, e.space);
    if with_lookup {
        Ok(Some(device::build_lookup(b, dev_ty, &e.name, e.space)))
    } else {
        Ok(None)
    }
}

/// Emit the exit protocol for one mapped variable.
fn emit_exit(b: &mut Builder, e: &MapEntry) -> Result<(), String> {
    let host_ty = b.ir.value_ty(e.host_var);
    let dev_ty = b.ir.memref_in_space(host_ty, e.space);
    device::build_data_release(b, &e.name, e.space);
    let still = device::build_data_check_exists(b, &e.name);
    let done = arith::not(b, still);
    let host_var = e.host_var;
    let name = e.name.clone();
    let space = e.space;
    let copies_out = e.map_type.copies_out();
    scf::build_if(
        b,
        done,
        &[],
        |then_b| {
            if copies_out {
                let dev = device::build_lookup(then_b, dev_ty, &name, space);
                memref::transfer(then_b, dev, host_var);
            }
            vec![]
        },
        |_| vec![],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{builtin, func, registry};
    use ftn_mlir::{print_op, verify};

    fn build_listing1(ir: &mut Ir) -> OpId {
        // target data map(from:a) { target map(to:b) implicit(a) { ... } }
        let (module, mbody) = builtin::module(ir);
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[100], f32t, 0);
        let mut b = Builder::at_end(ir, mbody);
        let (_f, entry) = func::build_func(&mut b, "main", &[], &[]);
        b.set_insertion_point_to_end(entry);
        let a = memref::alloc(&mut b, mty, &[]);
        let bb = memref::alloc(&mut b, mty, &[]);
        let mi_a = omp::build_map_info(&mut b, a, omp::MapType::From, "a", &[]);
        omp::build_target_data(&mut b, &[mi_a], |inner| {
            let mi_b = omp::build_map_info(inner, bb, omp::MapType::To, "b", &[]);
            let mi_a2 = omp::build_map_info(inner, a, omp::MapType::ImplicitTofrom, "a", &[]);
            omp::build_target(inner, &[mi_b, mi_a2], &[], |tb, args| {
                let i = arith::const_index(tb, 0);
                let v = memref::load(tb, args[0], &[i]);
                memref::store(tb, v, args[1], &[i]);
            });
        });
        func::build_return(&mut b, &[]);
        module
    }

    #[test]
    fn lowers_listing1_nesting() {
        let mut ir = Ir::new();
        let module = build_listing1(&mut ir);
        let mut pass = LowerOmpMappedDataPass::new();
        pass.run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("omp.map_info"), "{text}");
        assert!(!text.contains("omp.target_data"), "{text}");
        assert!(text.contains("device.alloc"), "{text}");
        assert!(text.contains("device.data_acquire"), "{text}");
        assert!(text.contains("device.data_release"), "{text}");
        assert!(text.contains("device.data_check_exists"), "{text}");
        assert!(text.contains("memref.dma_start"), "{text}");
        // a acquired twice (data region + implicit target map).
        let acquires = text.matches("device.data_acquire").count();
        assert_eq!(acquires, 3, "a twice + b once:\n{text}");
        // Target block args must now be device memrefs (space != 0).
        assert!(text.contains("memref<100xf32, 1"), "{text}");
    }

    #[test]
    fn enter_exit_update_lower() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[8], f32t, 0);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "main", &[], &[]);
            b.set_insertion_point_to_end(entry);
            let a = memref::alloc(&mut b, mty, &[]);
            let mi = omp::build_map_info(&mut b, a, omp::MapType::To, "a", &[]);
            omp::build_target_enter_data(&mut b, &[mi]);
            let mi2 = omp::build_map_info(&mut b, a, omp::MapType::From, "a", &[]);
            omp::build_target_update(&mut b, &[mi2], "from");
            let mi3 = omp::build_map_info(&mut b, a, omp::MapType::From, "a", &[]);
            omp::build_target_exit_data(&mut b, &[mi3]);
            func::build_return(&mut b, &[]);
        }
        let mut pass = LowerOmpMappedDataPass::new();
        pass.run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();
        let text = print_op(&ir, module);
        assert!(!text.contains("omp."), "all omp data ops gone:\n{text}");
        assert!(text.contains("device.lookup"), "{text}");
    }

    /// 25 distinctly named maps across nested `target data`, `target`,
    /// enter / update / exit constructs: banks are handed out round-robin in
    /// the order the driver first meets each name — outermost construct
    /// first, an inlined `target_data` body before the construct's later
    /// siblings — and wrap past `HBM_BANKS`. The table is what the
    /// find-first-and-rewalk driver this pass used to have assigned.
    #[test]
    fn hbm_banks_follow_preorder_past_the_wrap() {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let mty = ir.memref_t(&[8], f32t, 0);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "main", &[], &[]);
            b.set_insertion_point_to_end(entry);
            let buf = memref::alloc(&mut b, mty, &[]);
            let maps = |b: &mut Builder, names: &[&str]| -> Vec<ValueId> {
                names
                    .iter()
                    .map(|n| omp::build_map_info(b, buf, omp::MapType::Tofrom, n, &[]))
                    .collect()
            };
            let target = |b: &mut Builder, names: &[&str]| {
                let mi = maps(b, names);
                omp::build_target(b, &mi, &[], |_, _| {});
            };

            let mi = maps(&mut b, &["e0", "e1"]);
            omp::build_target_enter_data(&mut b, &mi);
            let mi = maps(&mut b, &["d0", "d1", "d2"]);
            omp::build_target_data(&mut b, &mi, |inner| {
                target(inner, &["t0", "t1"]);
                let mi = maps(inner, &["n0", "n1"]);
                omp::build_target_data(inner, &mi, |innermost| {
                    target(innermost, &["t2", "d0", "n0"]);
                    let mi = maps(innermost, &["n1", "u0"]);
                    omp::build_target_update(innermost, &mi, "from");
                });
                let mi = maps(inner, &["e2"]);
                omp::build_target_enter_data(inner, &mi);
                target(inner, &["t3", "t4"]);
            });
            // Met only after everything the data region above contained.
            target(&mut b, &["a0", "a1", "a2", "a3", "a4", "a5"]);
            let mi = maps(&mut b, &["d1", "u1"]);
            omp::build_target_update(&mut b, &mi, "to");
            let mi = maps(&mut b, &["e0", "e1", "e2", "x0"]);
            omp::build_target_exit_data(&mut b, &mi);
            let mi = maps(&mut b, &["z0", "z1"]);
            omp::build_target_data(&mut b, &mi, |inner| target(inner, &["z2", "a0"]));
            func::build_return(&mut b, &[]);
        }
        LowerOmpMappedDataPass::new().run(&mut ir, module).unwrap();
        verify(&ir, module, &registry()).unwrap();

        let mut spaces: Vec<(String, u32)> = Vec::new();
        for op in ftn_mlir::walk_preorder(&ir, module) {
            if !ir.has_attr(op, "memory_space") {
                continue;
            }
            let (name, space) = (device::data_name(&ir, op), device::memory_space(&ir, op));
            match spaces.iter().find(|(n, _)| n == name) {
                Some((_, seen)) => assert_eq!(*seen, space, "'{name}' changed banks"),
                None => spaces.push((name.to_string(), space)),
            }
        }
        spaces.sort();
        let expected = [
            ("a0", 15),
            ("a1", 16),
            ("a2", 1),
            ("a3", 2),
            ("a4", 3),
            ("a5", 4),
            ("d0", 3),
            ("d1", 4),
            ("d2", 5),
            ("e0", 1),
            ("e1", 2),
            ("e2", 12),
            ("n0", 8),
            ("n1", 9),
            ("t0", 6),
            ("t1", 7),
            ("t2", 10),
            ("t3", 13),
            ("t4", 14),
            ("u0", 11),
            ("u1", 5),
            ("x0", 6),
            ("z0", 7),
            ("z1", 8),
            ("z2", 9),
        ];
        let actual: Vec<(&str, u32)> = spaces.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        assert_eq!(actual, expected);
    }
}
