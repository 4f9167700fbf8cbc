//! The OpenCL-like host runtime: implements the `device` dialect ops as
//! [`ftn_interp::DialectHooks`], executing kernel launches against the FPGA
//! simulator and accounting transfer/kernel time the way the paper's tables
//! measure it (kernel time excludes per-launch PCIe traffic, which the data
//! environment makes resident).
//!
//! Launches run inline on the calling thread. Historically every launch
//! spawned a crossbeam scoped thread that was joined immediately — pure
//! overhead with no overlap. Asynchrony now lives a level up: `ftn-cluster`
//! hosts one `HostRuntime` per pool device on a persistent worker thread, so
//! the worker is reused across launches instead of re-spawned per launch.
//!
//! A device op is decoded once. The first time the runtime sees an op it
//! reads the op's name and attributes into a `Decoded` entry, kept in a
//! table indexed by `OpId::index()`; every later visit dispatches on that
//! entry. A data op's name is resolved to its [`DataSlot`] there, so the
//! per-region protocol (`data_check_exists`, `alloc`, `dma_start`,
//! `data_acquire`, `kernel_create/launch/wait`, `data_release`) compares no
//! string and reads no attribute. The table belongs to one host module:
//! handing the runtime ops of another `Ir` starts a fresh one.

use std::sync::Arc;

use ftn_dialects::{device, memref};
use ftn_fpga::{DeviceModel, ExecutionStats, KernelExecutor};
use ftn_interp::{DialectHooks, InterpError, Memory, RtValue};
use ftn_mlir::{Ir, OpId, TypeKind};
use serde::Serialize;

use crate::data_env::{DataEnvironment, DataSlot};

/// Statistics accumulated over one host run.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct RunStats {
    /// Sum of kernel execution times (the paper's reported runtime metric).
    pub kernel_seconds: f64,
    /// Kernel time including per-launch overhead.
    pub kernel_wall_seconds: f64,
    /// Host↔device PCIe transfer time.
    pub transfer_seconds: f64,
    pub launches: u64,
    pub transfers: u64,
    pub total_cycles: u64,
    /// Cycles charged by each kernel launch, in launch order (per-launch
    /// accounting surfaced for pool-level metrics).
    pub launch_cycles: Vec<u64>,
}

impl RunStats {
    /// Fold `other` into `self` (pool aggregation across devices).
    pub fn merge(&mut self, other: &RunStats) {
        self.kernel_seconds += other.kernel_seconds;
        self.kernel_wall_seconds += other.kernel_wall_seconds;
        self.transfer_seconds += other.transfer_seconds;
        self.launches += other.launches;
        self.transfers += other.transfers;
        self.total_cycles += other.total_cycles;
        self.launch_cycles.extend_from_slice(&other.launch_cycles);
    }

    /// Charge one kernel launch. Every launch path — a host program's
    /// `kernel_launch` and a session's kernel job — charges through here,
    /// so their totals are bit-identical. Inlined: it sits on the hook path
    /// every target region takes.
    #[inline]
    pub fn add_launch(&mut self, launch: &ExecutionStats) {
        self.kernel_seconds += launch.kernel_seconds;
        self.kernel_wall_seconds += launch.wall_seconds;
        self.total_cycles += launch.cycles;
        self.launch_cycles.push(launch.cycles);
        self.launches += 1;
    }
}

/// A host op as the runtime executes it.
enum Decoded {
    Alloc {
        slot: DataSlot,
        space: u32,
        elem: &'static str,
        /// The result type's extents; `DYN_DIM` ones come from the operands.
        shape: Box<[i64]>,
    },
    Lookup(DataSlot),
    CheckExists(DataSlot),
    Acquire(DataSlot),
    Release(DataSlot),
    KernelCreate(Arc<str>),
    KernelLaunch,
    KernelWait,
    DmaStart,
    /// Not a runtime op: declined.
    Other,
}

struct KernelInstance {
    device_function: Arc<str>,
    args: Vec<RtValue>,
    launched: bool,
}

/// See module docs.
pub struct HostRuntime {
    pub data_env: DataEnvironment,
    pub executor: KernelExecutor,
    pub device: DeviceModel,
    pub stats: RunStats,
    /// Kernel instances by handle; handle `h` is entry `h - 1`.
    kernels: Vec<KernelInstance>,
    /// Decoded ops by `OpId::index()`, and the address of the `Ir` they
    /// were decoded from.
    decoded: Vec<Option<Decoded>>,
    decoded_ir: usize,
    /// Operand scratch of `device.alloc`'s resolved shape.
    shape: Vec<i64>,
}

impl HostRuntime {
    pub fn new(executor: KernelExecutor, device: DeviceModel) -> Self {
        HostRuntime {
            data_env: DataEnvironment::new(),
            executor,
            device,
            stats: RunStats::default(),
            kernels: Vec::new(),
            decoded: Vec::new(),
            decoded_ir: 0,
            shape: Vec::new(),
        }
    }

    fn elem_name(ir: &Ir, ty: ftn_mlir::TypeId) -> Result<&'static str, InterpError> {
        match ir.type_kind(ty) {
            TypeKind::Float32 => Ok("f32"),
            TypeKind::Float64 => Ok("f64"),
            TypeKind::Integer { width: 1 } => Ok("i1"),
            TypeKind::Integer { width: 32 } => Ok("i32"),
            TypeKind::Integer { .. } => Ok("i64"),
            TypeKind::Index => Ok("index"),
            other => Err(InterpError::new(format!(
                "bad device element type {other:?}"
            ))),
        }
    }

    /// Read what executing `op` needs from the IR. An op that cannot be
    /// decoded is not kept, so it raises the same error every time.
    fn decode(&mut self, ir: &Ir, op: OpId) -> Result<Decoded, InterpError> {
        let name = ir.op_name(op);
        let mut slot = || self.data_env.slot(device::data_name(ir, op));
        Ok(match name {
            device::ALLOC => {
                let slot = slot();
                let space = device::memory_space(ir, op);
                let result_ty = ir.value_ty(ir.op(op).results[0]);
                let TypeKind::MemRef { shape, elem, .. } = ir.type_kind(result_ty) else {
                    return Err(InterpError::new("device.alloc result must be memref"));
                };
                Decoded::Alloc {
                    slot,
                    space,
                    elem: Self::elem_name(ir, *elem)?,
                    shape: shape.as_slice().into(),
                }
            }
            device::LOOKUP => Decoded::Lookup(slot()),
            device::DATA_CHECK_EXISTS => Decoded::CheckExists(slot()),
            device::DATA_ACQUIRE => Decoded::Acquire(slot()),
            device::DATA_RELEASE => Decoded::Release(slot()),
            device::KERNEL_CREATE => Decoded::KernelCreate(device::kernel_function(ir, op).into()),
            device::KERNEL_LAUNCH => Decoded::KernelLaunch,
            device::KERNEL_WAIT => Decoded::KernelWait,
            memref::DMA_START => Decoded::DmaStart,
            _ => Decoded::Other,
        })
    }
}

/// Kernel instance `h` of `kernels`, if one was created.
fn instance(kernels: &mut [KernelInstance], h: u64) -> Option<&mut KernelInstance> {
    kernels.get_mut((h as usize).checked_sub(1)?)
}

/// The handle operand of `op`.
fn handle(args: &[RtValue], op: &str) -> Result<u64, InterpError> {
    match args[0] {
        RtValue::KernelHandle(h) => Ok(h),
        _ => Err(InterpError::new(format!("{op} expects a handle"))),
    }
}

impl DialectHooks for HostRuntime {
    fn handle_op(
        &mut self,
        ir: &Ir,
        memory: &mut Memory,
        op: OpId,
        args: &[RtValue],
    ) -> Result<Option<Vec<RtValue>>, InterpError> {
        let ir_addr = ir as *const Ir as usize;
        if self.decoded_ir != ir_addr {
            self.decoded.clear();
            self.decoded_ir = ir_addr;
        }
        let i = op.index();
        if self.decoded.get(i).is_none_or(Option::is_none) {
            let decoded = self.decode(ir, op)?;
            if self.decoded.len() <= i {
                self.decoded.resize_with(i + 1, || None);
            }
            self.decoded[i] = Some(decoded);
        }
        let Some(decoded) = &self.decoded[i] else {
            unreachable!("decoded above")
        };
        let values = match decoded {
            Decoded::Alloc {
                slot,
                space,
                elem,
                shape,
            } => {
                self.shape.clear();
                let mut dyn_iter = args.iter();
                for &d in shape.iter() {
                    if d == ftn_mlir::types::DYN_DIM {
                        let size = dyn_iter
                            .next()
                            .ok_or_else(|| InterpError::new("device.alloc missing dynamic size"))?;
                        self.shape.push(size.as_int()?);
                    } else {
                        self.shape.push(d);
                    }
                }
                let m = self
                    .data_env
                    .alloc_at(memory, *slot, *space, elem, &self.shape)?;
                vec![RtValue::MemRef(m)]
            }
            Decoded::Lookup(slot) => vec![RtValue::MemRef(self.data_env.lookup_at(*slot)?)],
            Decoded::CheckExists(slot) => vec![RtValue::I1(self.data_env.check_exists_at(*slot))],
            Decoded::Acquire(slot) => {
                self.data_env.acquire_at(*slot)?;
                vec![]
            }
            Decoded::Release(slot) => {
                self.data_env.release_at(*slot)?;
                vec![]
            }
            Decoded::KernelCreate(function) => {
                self.kernels.push(KernelInstance {
                    device_function: function.clone(),
                    args: args.to_vec(),
                    launched: false,
                });
                vec![RtValue::KernelHandle(self.kernels.len() as u64)]
            }
            Decoded::KernelLaunch => {
                let instance = instance(&mut self.kernels, handle(args, "kernel_launch")?)
                    .ok_or_else(|| InterpError::new("kernel_launch with unknown handle"))?;
                // Execute inline: the calling thread is the (reused) device
                // worker; the simulated timeline charges the kernel at the
                // matching wait.
                let stats =
                    self.executor
                        .execute(&instance.device_function, &instance.args, memory)?;
                instance.launched = true;
                self.stats.add_launch(&stats);
                vec![]
            }
            Decoded::KernelWait => {
                let h = handle(args, "kernel_wait")?;
                if !instance(&mut self.kernels, h).is_some_and(|k| k.launched) {
                    return Err(InterpError::new("kernel_wait before launch completed"));
                }
                vec![]
            }
            Decoded::DmaStart => {
                // Host<->device transfer: copy + PCIe timing.
                let src = args[0].as_memref()?.buffer;
                let dst = args[1].as_memref()?.buffer;
                let bytes = memory.get(src).byte_len();
                memory.copy(src, dst)?;
                self.stats.transfer_seconds += self.device.transfer_seconds(bytes);
                self.stats.transfers += 1;
                vec![RtValue::DmaTag(0)]
            }
            Decoded::Other => return Ok(None),
        };
        Ok(Some(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_dialects::{arith, builtin, func, memref, omp, registry};
    use ftn_fpga::VitisBackend;
    use ftn_interp::{call_function, Buffer, MemRefVal, NoObserver};
    use ftn_mlir::{verify, Builder};
    use ftn_passes::lower_omp_to_hls;

    /// Build a device module with one copy kernel and synthesize it.
    fn make_executor() -> KernelExecutor {
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module_with_target(&mut ir, "fpga");
        let f32t = ir.f32t();
        let index = ir.index_t();
        let mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "copy_kernel", &[mty, mty, index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let one = arith::const_index(&mut b, 1);
            let cfg = omp::WsLoopConfig {
                parallel: true,
                ..Default::default()
            };
            omp::build_wsloop(&mut b, one, args[2], one, &cfg, None, |ib, iv, _| {
                let one_i = arith::const_index(ib, 1);
                let idx = arith::subi(ib, iv, one_i);
                let v = memref::load(ib, args[0], &[idx]);
                memref::store(ib, v, args[1], &[idx]);
                vec![]
            });
            func::build_return(&mut b, &[]);
        }
        lower_omp_to_hls::run(&mut ir, module).unwrap();
        let bs = VitisBackend::new(DeviceModel::u280())
            .synthesize(&ir, module)
            .unwrap();
        KernelExecutor::from_bitstream(&bs, DeviceModel::u280()).unwrap()
    }

    /// Host module exercising the full device-op protocol, as produced by
    /// lower-omp-mapped-data + lower-omp-target-region.
    #[test]
    fn host_module_drives_runtime_end_to_end() {
        let executor = make_executor();
        let mut runtime = HostRuntime::new(executor, DeviceModel::u280());

        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let f32t = ir.f32t();
        let index = ir.index_t();
        let host_mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 0);
        let dev_mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "main", &[host_mty, host_mty, index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let n = args[2];
            let x_dev = device::build_alloc(&mut b, dev_mty, &[n], "x", 1);
            let y_dev = device::build_alloc(&mut b, dev_mty, &[n], "y", 1);
            device::build_data_acquire(&mut b, "x", 1);
            device::build_data_acquire(&mut b, "y", 1);
            memref::transfer(&mut b, args[0], x_dev);
            let k = device::build_kernel_create(&mut b, &[x_dev, y_dev, n], "copy_kernel", None);
            device::build_kernel_launch(&mut b, k);
            device::build_kernel_wait(&mut b, k);
            memref::transfer(&mut b, y_dev, args[1]);
            device::build_data_release(&mut b, "x", 1);
            device::build_data_release(&mut b, "y", 1);
            func::build_return(&mut b, &[]);
        }
        verify(&ir, module, &registry()).unwrap();

        let mut memory = Memory::new();
        let x = memory.alloc(Buffer::F32(vec![3.0, 1.0, 4.0, 1.0, 5.0]), 0);
        let y = memory.alloc(Buffer::F32(vec![0.0; 5]), 0);
        let args = vec![
            RtValue::MemRef(MemRefVal {
                buffer: x,
                shape: vec![5],
                space: 0,
            }),
            RtValue::MemRef(MemRefVal {
                buffer: y,
                shape: vec![5],
                space: 0,
            }),
            RtValue::Index(5),
        ];
        call_function(
            &ir,
            module,
            "main",
            &args,
            &mut memory,
            &mut runtime,
            &mut NoObserver,
        )
        .unwrap();
        assert_eq!(memory.get(y), &Buffer::F32(vec![3.0, 1.0, 4.0, 1.0, 5.0]));
        assert_eq!(runtime.stats.launches, 1);
        assert_eq!(runtime.stats.transfers, 2);
        assert!(runtime.stats.kernel_seconds > 0.0);
        assert!(runtime.stats.transfer_seconds > 0.0);
        assert_eq!(runtime.data_env.count("x"), 0);
    }

    #[test]
    fn wait_before_launch_is_error() {
        let executor = make_executor();
        let mut runtime = HostRuntime::new(executor, DeviceModel::u280());
        let mut ir = Ir::new();
        let (module, mbody) = builtin::module(&mut ir);
        let index = ir.index_t();
        let f32t = ir.f32t();
        let dev_mty = ir.memref_t(&[ftn_mlir::types::DYN_DIM], f32t, 1);
        {
            let mut b = Builder::at_end(&mut ir, mbody);
            let (_f, entry) = func::build_func(&mut b, "main", &[index], &[]);
            let args = b.ir.block(entry).args.clone();
            b.set_insertion_point_to_end(entry);
            let x = device::build_alloc(&mut b, dev_mty, &[args[0]], "x", 1);
            let k = device::build_kernel_create(&mut b, &[x, x, args[0]], "copy_kernel", None);
            device::build_kernel_wait(&mut b, k); // wait without launch
            func::build_return(&mut b, &[]);
        }
        let mut memory = Memory::new();
        let e = call_function(
            &ir,
            module,
            "main",
            &[RtValue::Index(4)],
            &mut memory,
            &mut runtime,
            &mut NoObserver,
        )
        .unwrap_err();
        assert!(e.message.contains("kernel_wait before launch"), "{e}");
    }
}
