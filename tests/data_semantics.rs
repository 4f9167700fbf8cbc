//! OpenMP data-environment semantics through the full pipeline: the nested
//! region behaviour of the paper's Listing 1, staleness/coherence rules, and
//! enter/exit data lifetimes.

use ftn_core::{Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_interp::RtValue;

fn run_case(src: &str, func: &str, arrays: &[(&str, Vec<f32>)], n: i32) -> Vec<Vec<f32>> {
    let artifacts = Compiler::default().compile_source(src).unwrap();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let mut handles = Vec::new();
    let mut args = vec![RtValue::I32(n)];
    for (_, data) in arrays {
        let h = machine.host_f32(data);
        args.push(h.clone());
        handles.push(h);
    }
    machine.run(func, &args).unwrap();
    handles.iter().map(|h| machine.read_f32(h)).collect()
}

/// Listing 1 semantics: with `map(from: a)` on the data region, the device
/// copy of `a` starts UNINITIALIZED (zeroed in our runtime); the implicit map
/// inside must not copy the host value in, and only the final value comes back.
#[test]
fn from_map_does_not_copy_in() {
    let src = r#"
subroutine fromonly(n, a, b)
  implicit none
  integer :: n, i
  real :: a(n), b(n)
  !$omp target data map(from: a) map(to: b)
  !$omp target
  do i = 1, n
    a(i) = a(i) + b(i)
  end do
  !$omp end target
  !$omp end target data
end subroutine
"#;
    // Host a = 100s; device a starts zeroed; result must be 0 + b, not 100 + b.
    let out = run_case(
        src,
        "fromonly",
        &[("a", vec![100.0; 4]), ("b", vec![1.0, 2.0, 3.0, 4.0])],
        4,
    );
    assert_eq!(out[0], vec![1.0, 2.0, 3.0, 4.0]);
}

/// Without an enclosing data region, implicit tofrom maps copy in AND out on
/// every target — two sequential targets chain through host memory.
#[test]
fn implicit_tofrom_roundtrips_each_target() {
    let src = r#"
subroutine chain(n, a)
  implicit none
  integer :: n, i
  real :: a(n)
  !$omp target
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
  !$omp end target
  !$omp target
  do i = 1, n
    a(i) = a(i) * 3.0
  end do
  !$omp end target
end subroutine
"#;
    let out = run_case(src, "chain", &[("a", vec![1.0; 5])], 5);
    assert_eq!(out[0], vec![6.0; 5]);
}

/// `target enter data map(to:)` pins data on the device: writes by a target
/// are NOT visible on the host until the matching `exit data map(from:)`.
#[test]
fn enter_exit_data_controls_visibility() {
    let src = r#"
subroutine pinned(n, a, snapshot)
  implicit none
  integer :: n, i
  real :: a(n), snapshot(n)
  !$omp target enter data map(to: a)
  !$omp target
  do i = 1, n
    a(i) = a(i) + 5.0
  end do
  !$omp end target
  ! Host copy still stale here: snapshot records it.
  do i = 1, n
    snapshot(i) = a(i)
  end do
  !$omp target exit data map(from: a)
end subroutine
"#;
    let out = run_case(
        src,
        "pinned",
        &[("a", vec![1.0; 4]), ("snapshot", vec![0.0; 4])],
        4,
    );
    // After exit data, host sees the device value...
    assert_eq!(out[0], vec![6.0; 4]);
    // ...but the mid-region snapshot saw the stale host copy.
    assert_eq!(out[1], vec![1.0; 4]);
}

/// Nested data regions reference-count: an inner enter/exit pair must not
/// evict data held by the outer region.
#[test]
fn nested_lifetimes_are_reference_counted() {
    let src = r#"
subroutine nestedrc(n, a)
  implicit none
  integer :: n, i
  real :: a(n)
  !$omp target data map(tofrom: a)
  !$omp target enter data map(to: a)
  !$omp target
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
  !$omp end target
  !$omp target exit data map(from: a)
  !$omp target
  do i = 1, n
    a(i) = a(i) * 2.0
  end do
  !$omp end target
  !$omp end target data
end subroutine
"#;
    // (1 + 1) * 2 = 4: the second target must still see the device copy
    // (count dropped 2 -> 1 at exit data, not to 0).
    let out = run_case(src, "nestedrc", &[("a", vec![1.0; 3])], 3);
    assert_eq!(out[0], vec![4.0; 3]);
}

/// Host scalars read inside target regions are firstprivate: assignments on
/// the host between launches are honoured (SGESL's `t`).
#[test]
fn scalars_are_firstprivate_per_launch() {
    let src = r#"
subroutine scalars(n, a)
  implicit none
  integer :: n, i, k
  real :: a(n), t
  do k = 1, 3
    t = real(k)
    !$omp target parallel do
    do i = 1, n
      a(i) = a(i) + t
    end do
    !$omp end target parallel do
  end do
end subroutine
"#;
    // 1 + 2 + 3 added over three launches.
    let out = run_case(src, "scalars", &[("a", vec![0.0; 4])], 4);
    assert_eq!(out[0], vec![6.0; 4]);
}

/// A run frees what it allocated — the data environment's device copies and
/// the host program's `memref.alloc` locals — so a `Machine` driven in a
/// loop keeps a flat arena. Before, each SGESL run at N = 48 left 9 buffers
/// (9 436 bytes) behind.
#[test]
fn repeated_runs_keep_the_arena_flat() {
    let n = 48;
    let artifacts = ftn_bench::workloads::compile_sgesl();
    let mut machine = Machine::load(&artifacts, DeviceModel::u280()).unwrap();
    let mut a = ftn_bench::workloads::random_matrix(n, 3);
    let b = ftn_bench::workloads::random_vec(n, 4, -1.0, 1.0);
    let ipvt = ftn_bench::workloads::sgefa_ref(&mut a, n, n);
    let args = [
        machine.host_f32(&a),
        RtValue::I32(n as i32),
        RtValue::I32(n as i32),
        machine.host_i32(&ipvt),
        machine.host_f32(&b),
    ];
    let held = |machine: &Machine| (machine.memory.live(), machine.memory.live_bytes());
    let before = held(&machine);
    let mut after = Vec::new();
    for _ in 0..10 {
        machine.run("sgesl", &args).unwrap();
        after.push(held(&machine));
    }
    assert_eq!(after[9], after[1], "run 10 against run 2");
    assert_eq!(after[1], before, "a run keeps nothing of its own");
}
