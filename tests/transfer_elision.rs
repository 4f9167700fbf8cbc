//! Where transfer elision happens: SGESL (the paper's Listing 6) maps the
//! whole matrix `tofrom` on each of its `2n - 1` target regions and never
//! writes it. The modelled traffic — every `memref.dma_start` counted and
//! charged its PCIe time — is what it always was; the bytes the simulator
//! physically moves are one matrix plus the right-hand side's own traffic,
//! because `ftn_interp::Memory::copy` skips a copy between two buffers that
//! already hold the same bytes.

use ftn_bench::workloads;
use ftn_core::Machine;
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

#[test]
fn sgesl_moves_the_matrix_once_and_is_charged_every_transfer() {
    let n = 48;
    let artifacts = workloads::compile_sgesl();
    let x_true = workloads::random_vec(n, 4, -1.0, 1.0);
    let mut a = workloads::random_matrix(n, 3);
    let b0 = workloads::matvec(&a, n, n, &x_true);
    let ipvt = workloads::sgefa_ref(&mut a, n, n);

    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let aa = machine.host_f32(&a);
    let ba = machine.host_f32(&b0);
    let ip = machine.host_i32(&ipvt);
    let copied_before = machine.memory.bytes_copied();
    let report = machine
        .run(
            "sgesl",
            &[
                aa,
                RtValue::I32(n as i32),
                RtValue::I32(n as i32),
                ip,
                ba.clone(),
            ],
        )
        .unwrap();
    let copied = machine.memory.bytes_copied() - copied_before;

    // The modelled traffic, pinned at what an arena that copied every
    // transfer reported: each of the 95 launches moves `a` and `b` in and
    // out.
    let launches = 2 * n - 1;
    assert_eq!(report.stats.launches as usize, launches);
    assert_eq!(report.stats.transfers, 380);
    assert_eq!(report.stats.transfer_seconds, 0.009648959999999986);

    let mut expect = b0;
    workloads::sgesl_ref(&a, n, n, &ipvt, &mut expect);
    let got = machine.read_f32(&ba);
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "b[{i}]: {g} vs {e}");
    }

    // One matrix in, then at most `b` in and out per launch; copying
    // everything would be 2 × 95 × (9 216 + 192) = 1 787 520 bytes.
    let matrix = (n * n * 4) as u64;
    let b_per_launch = 2 * (n * 4) as u64;
    let bound = matrix + launches as u64 * b_per_launch;
    assert!(
        copied <= bound,
        "{copied} bytes copied, at most {bound} expected"
    );
}
