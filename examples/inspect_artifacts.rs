//! Artifact tour: every output of the compilation flow for SAXPY — the
//! generated C++/OpenCL host code, the modern LLVM-IR, the LLVM-7 downgrade
//! with AMD `_ssdm_op_*` intrinsics, and the serialized bitstream with its
//! schedules and resource reports.
//!
//! Run with: `cargo run --example inspect_artifacts`

use ftn_bench::workloads;

fn main() {
    let artifacts = workloads::compile_saxpy();

    println!("################ generated C++ / OpenCL host code ################");
    println!("{}", artifacts.host_cpp);

    println!("################ device LLVM-IR (modern) ################");
    println!("{}", artifacts.llvm_ir);

    println!("################ device LLVM-IR (LLVM 7 + SSDM intrinsics) ################");
    // Print the kernel only; the linked runtime library follows in full.
    let upto = artifacts
        .llvm7_ir
        .find("; ---- linked ftn runtime library ----")
        .unwrap_or(artifacts.llvm7_ir.len());
    println!("{}", &artifacts.llvm7_ir[..upto]);

    println!("################ bitstream ################");
    let bs = &artifacts.bitstream;
    println!("device: {} @ {} MHz", bs.device_name, bs.frequency_mhz);
    for k in &bs.kernels {
        println!(
            "kernel {}: {} LUT / {} FF / {} BRAM / {} DSP, {} recognized MAC(s)",
            k.name,
            k.resources.lut,
            k.resources.ff,
            k.resources.bram,
            k.resources.dsp,
            k.recognized_macs
        );
        for s in &k.schedule {
            println!(
                "  loop {}: pipelined={} II={} depth={} unroll={}",
                s.loop_index, s.pipelined, s.ii, s.depth, s.unroll
            );
            for p in &s.ports {
                println!(
                    "    port {}: {} read(s), {} write(s), serialized_rmw={} -> {} cycles",
                    p.bundle, p.reads, p.writes, p.serialized_rmw, p.cycles
                );
            }
        }
    }
    // Round-trip the "xclbin" through its binary framing.
    let bytes = bs.to_bytes();
    let reloaded = ftn_fpga::Bitstream::from_bytes(&bytes).expect("reload");
    println!(
        "serialized bitstream: {} bytes; reload OK ({} kernels)",
        bytes.len(),
        reloaded.kernels.len()
    );
}
