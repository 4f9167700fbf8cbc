//! `omp` dialect: the OpenMP subset used for `target` offload (modelled on the
//! upstream MLIR OpenMP dialect, §3 of the paper).
//!
//! Data clauses become `omp.map_info` ops referencing the mapped variable;
//! `omp.target` regions receive mapped variables (and firstprivate scalars) as
//! block arguments. Combined `target parallel do [simd]` loops become
//! `omp.wsloop` with `parallel`/`simd`/`simdlen`/`reduction` attributes, and
//! loop bounds keep Fortran's *inclusive* `do` semantics until HLS lowering.

use ftn_mlir::{BlockId, Builder, Ir, OpId, OpSpec, TypeId, ValueId, VerifierRegistry};

pub const MAP_INFO: &str = "omp.map_info";
pub const BOUNDS: &str = "omp.bounds";
pub const TARGET: &str = "omp.target";
pub const TARGET_DATA: &str = "omp.target_data";
pub const TARGET_ENTER_DATA: &str = "omp.target_enter_data";
pub const TARGET_EXIT_DATA: &str = "omp.target_exit_data";
pub const TARGET_UPDATE: &str = "omp.target_update";
pub const WSLOOP: &str = "omp.wsloop";
pub const YIELD: &str = "omp.yield";
pub const TERMINATOR: &str = "omp.terminator";

/// OpenMP map types. `ImplicitTofrom` is the safe default OpenMP applies to
/// variables referenced inside `target` without an explicit clause (printed
/// `tofrom::implicit`, as in the paper's Listing-1 discussion).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapType {
    To,
    From,
    Tofrom,
    ImplicitTofrom,
}

impl MapType {
    pub fn as_str(self) -> &'static str {
        match self {
            MapType::To => "to",
            MapType::From => "from",
            MapType::Tofrom => "tofrom",
            MapType::ImplicitTofrom => "tofrom::implicit",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "to" => Some(MapType::To),
            "from" => Some(MapType::From),
            "tofrom" => Some(MapType::Tofrom),
            "tofrom::implicit" => Some(MapType::ImplicitTofrom),
            _ => None,
        }
    }

    /// Host→device copy required when entering the region?
    pub fn copies_in(self) -> bool {
        matches!(
            self,
            MapType::To | MapType::Tofrom | MapType::ImplicitTofrom
        )
    }

    /// Device→host copy required when leaving the region?
    pub fn copies_out(self) -> bool {
        matches!(
            self,
            MapType::From | MapType::Tofrom | MapType::ImplicitTofrom
        )
    }
}

/// Reduction kinds supported by `omp.wsloop reduction(...)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReductionKind {
    Add,
    Mul,
    Max,
    Min,
}

impl ReductionKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ReductionKind::Add => "add",
            ReductionKind::Mul => "mul",
            ReductionKind::Max => "max",
            ReductionKind::Min => "min",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "add" | "+" => Some(ReductionKind::Add),
            "mul" | "*" => Some(ReductionKind::Mul),
            "max" => Some(ReductionKind::Max),
            "min" => Some(ReductionKind::Min),
            _ => None,
        }
    }
}

/// `omp.map_info` describing how `var` is mapped.
pub fn build_map_info(
    b: &mut Builder,
    var: ValueId,
    map_type: MapType,
    var_name: &str,
    bounds: &[ValueId],
) -> ValueId {
    let ty = b.ir.opaque_t("omp", "map_info");
    let mt = b.ir.attr_str(map_type.as_str());
    let vn = b.ir.attr_str(var_name);
    let mut operands = vec![var];
    operands.extend_from_slice(bounds);
    b.insert_r(
        OpSpec::new(MAP_INFO)
            .operands(&operands)
            .results(&[ty])
            .attr("map_type", mt)
            .attr("var_name", vn),
    )
}

/// The variable a map_info refers to.
pub fn map_info_var(ir: &Ir, map_info_op: OpId) -> ValueId {
    ir.op(map_info_op).operands[0]
}

pub fn map_info_type(ir: &Ir, map_info_op: OpId) -> MapType {
    ir.attr_str_of(map_info_op, "map_type")
        .and_then(MapType::parse)
        .expect("omp.map_info without valid map_type")
}

pub fn map_info_name(ir: &Ir, map_info_op: OpId) -> &str {
    ir.attr_str_of(map_info_op, "var_name")
        .expect("omp.map_info without var_name")
}

/// Build `omp.target`. Operands are `map_infos ++ scalars`; the region's entry
/// block receives one argument per mapped variable (same type) followed by one
/// per scalar. `body_fn` populates the region given those block args.
pub fn build_target(
    b: &mut Builder,
    map_infos: &[ValueId],
    scalars: &[ValueId],
    body_fn: impl FnOnce(&mut Builder, &[ValueId]),
) -> OpId {
    let mut arg_types: Vec<TypeId> = Vec::with_capacity(map_infos.len() + scalars.len());
    for &mi in map_infos {
        let def = b.ir.defining_op(mi).expect("map_info must be an op result");
        let var = map_info_var(b.ir, def);
        arg_types.push(b.ir.value_ty(var));
    }
    for &s in scalars {
        arg_types.push(b.ir.value_ty(s));
    }
    let region = b.ir.new_region();
    let block = b.ir.new_block(region, &arg_types);
    let args = b.ir.block(block).args.clone();
    {
        let mut inner = Builder::at_end(b.ir, block);
        body_fn(&mut inner, &args);
        inner.insert(OpSpec::new(TERMINATOR));
    }
    let num_maps = b.ir.attr_i64(map_infos.len() as i64);
    let mut operands = map_infos.to_vec();
    operands.extend_from_slice(scalars);
    b.insert(
        OpSpec::new(TARGET)
            .operands(&operands)
            .region(region)
            .attr("num_maps", num_maps),
    )
}

/// Build `omp.target_data` (a structured data region; body uses outer values).
pub fn build_target_data(
    b: &mut Builder,
    map_infos: &[ValueId],
    body_fn: impl FnOnce(&mut Builder),
) -> OpId {
    let region = b.ir.new_region();
    let block = b.ir.new_block(region, &[]);
    {
        let mut inner = Builder::at_end(b.ir, block);
        body_fn(&mut inner);
        inner.insert(OpSpec::new(TERMINATOR));
    }
    let num_maps = b.ir.attr_i64(map_infos.len() as i64);
    b.insert(
        OpSpec::new(TARGET_DATA)
            .operands(map_infos)
            .region(region)
            .attr("num_maps", num_maps),
    )
}

pub fn build_target_enter_data(b: &mut Builder, map_infos: &[ValueId]) -> OpId {
    b.insert(OpSpec::new(TARGET_ENTER_DATA).operands(map_infos))
}

pub fn build_target_exit_data(b: &mut Builder, map_infos: &[ValueId]) -> OpId {
    b.insert(OpSpec::new(TARGET_EXIT_DATA).operands(map_infos))
}

/// `motion` is "to" or "from".
pub fn build_target_update(b: &mut Builder, map_infos: &[ValueId], motion: &str) -> OpId {
    let m = b.ir.attr_str(motion);
    b.insert(
        OpSpec::new(TARGET_UPDATE)
            .operands(map_infos)
            .attr("motion", m),
    )
}

/// Configuration of a worksharing loop (combined `parallel do [simd]`).
#[derive(Clone, Debug, Default)]
pub struct WsLoopConfig {
    pub parallel: bool,
    pub simd: bool,
    pub simdlen: Option<i64>,
    pub reduction: Option<ReductionKind>,
}

/// Build `omp.wsloop` with *inclusive* `index` bounds `lb..=ub`.
///
/// Without reduction: `body_fn(b, iv, &[])` and yields nothing.
/// With reduction: pass `red_init`; `body_fn(b, iv, &[acc])` must return the
/// next accumulator; the op then has one result (the reduced value).
pub fn build_wsloop(
    b: &mut Builder,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
    config: &WsLoopConfig,
    red_init: Option<ValueId>,
    body_fn: impl FnOnce(&mut Builder, ValueId, &[ValueId]) -> Vec<ValueId>,
) -> OpId {
    let index = b.ir.index_t();
    let mut arg_types = vec![index];
    if let Some(init) = red_init {
        arg_types.push(b.ir.value_ty(init));
    }
    let region = b.ir.new_region();
    let block = b.ir.new_block(region, &arg_types);
    let args = b.ir.block(block).args.clone();
    let yielded = {
        let mut inner = Builder::at_end(b.ir, block);
        body_fn(&mut inner, args[0], &args[1..])
    };
    {
        let mut inner = Builder::at_end(b.ir, block);
        inner.insert(OpSpec::new(YIELD).operands(&yielded));
    }
    let mut operands = vec![lb, ub, step];
    let mut result_types = vec![];
    if let Some(init) = red_init {
        operands.push(init);
        result_types.push(b.ir.value_ty(init));
    }
    let mut spec = OpSpec::new(WSLOOP)
        .operands(&operands)
        .results(&result_types)
        .region(region);
    let unit = b.ir.attr_unit();
    if config.parallel {
        spec = spec.attr("parallel", unit);
    }
    if config.simd {
        spec = spec.attr("simd", unit);
    }
    let simdlen_attr = config.simdlen.map(|s| b.ir.attr_i64(s));
    if let Some(a) = simdlen_attr {
        spec = spec.attr("simdlen", a);
    }
    let red_attr = config.reduction.map(|r| b.ir.attr_str(r.as_str()));
    if let Some(a) = red_attr {
        spec = spec.attr("reduction", a);
    }
    b.insert(spec)
}

/// Read a wsloop's config back from its attributes.
pub fn wsloop_config(ir: &Ir, op: OpId) -> WsLoopConfig {
    WsLoopConfig {
        parallel: ir.has_attr(op, "parallel"),
        simd: ir.has_attr(op, "simd"),
        simdlen: ir.attr_int_of(op, "simdlen"),
        reduction: ir
            .attr_str_of(op, "reduction")
            .and_then(ReductionKind::parse),
    }
}

pub fn wsloop_bounds(ir: &Ir, op: OpId) -> (ValueId, ValueId, ValueId) {
    let o = ir.op(op);
    (o.operands[0], o.operands[1], o.operands[2])
}

pub fn wsloop_body(ir: &Ir, op: OpId) -> BlockId {
    ir.entry_block(op, 0)
}

/// The `omp.map_info` defining ops used by a target-like op, in operand order.
pub fn map_info_ops(ir: &Ir, op: OpId) -> Vec<OpId> {
    let num = ir.attr_int_of(op, "num_maps").unwrap_or_else(|| {
        // enter/exit/update take only map operands.
        ir.op(op).operands.len() as i64
    }) as usize;
    ir.op(op).operands[..num]
        .iter()
        .map(|&v| {
            ir.defining_op(v)
                .expect("map operand must be a map_info result")
        })
        .collect()
}

/// Scalar (firstprivate) operands of an `omp.target`.
pub fn target_scalars(ir: &Ir, op: OpId) -> Vec<ValueId> {
    let num = ir.attr_int_of(op, "num_maps").unwrap_or(0) as usize;
    ir.op(op).operands[num..].to_vec()
}

pub fn register(reg: &mut VerifierRegistry) {
    reg.register(MAP_INFO, |ir, op| {
        if ir.op(op).operands.is_empty() {
            return Err("omp.map_info requires a variable operand".into());
        }
        if ir
            .attr_str_of(op, "map_type")
            .and_then(MapType::parse)
            .is_none()
        {
            return Err("omp.map_info requires a valid map_type".into());
        }
        if ir.attr_str_of(op, "var_name").is_none() {
            return Err("omp.map_info requires var_name".into());
        }
        Ok(())
    });
    reg.register(TARGET, |ir, op| {
        let num = ir
            .attr_int_of(op, "num_maps")
            .ok_or("omp.target requires num_maps")? as usize;
        let o = ir.op(op);
        if o.operands.len() < num {
            return Err("omp.target has fewer operands than num_maps".into());
        }
        if o.regions.len() != 1 {
            return Err("omp.target requires one region".into());
        }
        let args = ir.block(ir.entry_block(op, 0)).args.len();
        if args != o.operands.len() {
            return Err(format!(
                "omp.target region must have one block arg per operand ({} vs {})",
                args,
                o.operands.len()
            ));
        }
        Ok(())
    });
    reg.register(WSLOOP, |ir, op| {
        let o = ir.op(op);
        let has_red = ir.has_attr(op, "reduction");
        let expect_operands = if has_red { 4 } else { 3 };
        if o.operands.len() != expect_operands {
            return Err(format!(
                "omp.wsloop expects {expect_operands} operands (lb, ub, step{})",
                if has_red { ", red_init" } else { "" }
            ));
        }
        if has_red && o.results.len() != 1 {
            return Err("omp.wsloop with reduction must produce one result".into());
        }
        if ir.has_attr(op, "simdlen") && !ir.has_attr(op, "simd") {
            return Err("simdlen requires simd".into());
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, builtin, memref};
    use ftn_mlir::verify;

    #[test]
    fn map_types() {
        assert_eq!(
            MapType::parse("tofrom::implicit"),
            Some(MapType::ImplicitTofrom)
        );
        assert!(MapType::From.copies_out() && !MapType::From.copies_in());
        assert!(MapType::To.copies_in() && !MapType::To.copies_out());
        assert!(MapType::ImplicitTofrom.copies_in() && MapType::ImplicitTofrom.copies_out());
        for mt in [
            MapType::To,
            MapType::From,
            MapType::Tofrom,
            MapType::ImplicitTofrom,
        ] {
            assert_eq!(MapType::parse(mt.as_str()), Some(mt));
        }
    }

    #[test]
    fn target_with_maps_and_scalars() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let f32t = b.ir.f32t();
            let mty = b.ir.memref_t(&[100], f32t, 0);
            let a = memref::alloc(&mut b, mty, &[]);
            let mi = build_map_info(&mut b, a, MapType::From, "a", &[]);
            let scalar = arith::const_f32(&mut b, 2.0);
            let target = build_target(&mut b, &[mi], &[scalar], |inner, args| {
                assert_eq!(args.len(), 2);
                let idx = arith::const_index(inner, 0);
                let v = memref::load(inner, args[0], &[idx]);
                let s = arith::addf(inner, v, args[1]);
                memref::store(inner, s, args[0], &[idx]);
            });
            assert_eq!(map_info_ops(b.ir, target).len(), 1);
            assert_eq!(target_scalars(b.ir, target), vec![scalar]);
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }

    #[test]
    fn wsloop_with_reduction() {
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let lb = arith::const_index(&mut b, 1);
            let ub = arith::const_index(&mut b, 100);
            let step = arith::const_index(&mut b, 1);
            let init = arith::const_f32(&mut b, 0.0);
            let config = WsLoopConfig {
                parallel: true,
                simd: true,
                simdlen: Some(10),
                reduction: Some(ReductionKind::Add),
            };
            let ws = build_wsloop(
                &mut b,
                lb,
                ub,
                step,
                &config,
                Some(init),
                |inner, _iv, accs| {
                    let one = arith::const_f32(inner, 1.0);
                    vec![arith::addf(inner, accs[0], one)]
                },
            );
            let read_back = wsloop_config(b.ir, ws);
            assert!(read_back.parallel && read_back.simd);
            assert_eq!(read_back.simdlen, Some(10));
            assert_eq!(read_back.reduction, Some(ReductionKind::Add));
            assert_eq!(b.ir.op(ws).results.len(), 1);
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }

    #[test]
    fn nested_data_region_structure() {
        // Mirrors the paper's Listing 1: target data map(from: a) wrapping a
        // target with an implicit map of a and an explicit map of b.
        let mut ir = Ir::new();
        let (module, body) = builtin::module(&mut ir);
        {
            let mut b = Builder::at_end(&mut ir, body);
            let f32t = b.ir.f32t();
            let mty = b.ir.memref_t(&[100], f32t, 0);
            let a = memref::alloc(&mut b, mty, &[]);
            let bb = memref::alloc(&mut b, mty, &[]);
            let mi_a = build_map_info(&mut b, a, MapType::From, "a", &[]);
            build_target_data(&mut b, &[mi_a], |inner| {
                let mi_b = build_map_info(inner, bb, MapType::To, "b", &[]);
                let mi_a2 = build_map_info(inner, a, MapType::ImplicitTofrom, "a", &[]);
                build_target(inner, &[mi_b, mi_a2], &[], |_, _| {});
            });
        }
        verify(&ir, module, &crate::registry()).unwrap();
    }
}
