//! Iterative stencils over sharded sessions (inter-launch halo exchange),
//! checked differentially against the single-device reference — the
//! stencil program run sweep by sweep on `ftn_core::Machine`, which shares
//! no session, shard or row-exchange code with the pool:
//!
//! * A sharded Jacobi ping-pong loop with `refresh_halos` between sweeps is
//!   bit-identical to the single-device program at N = 1/2/4 shards, and
//!   its `RunStats` totals repeat exactly across identical runs; at one
//!   shard its statistics are pinned golden values.
//! * A refresh's patches ride on the session's next job to each device:
//!   refreshes back to back stay bit-identical, and a session whose next
//!   job fetches nothing (a `to`-only halo array) still has them applied
//!   and charged, by its close.
//! * Property: random grid sizes (non-divisible included) × shard counts ×
//!   halo widths × iteration counts — the halo-refresh path is identical to
//!   a full gather + re-scatter oracle (every sweep maps both whole arrays
//!   to one device and back), with host- and device-side leak checks.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
use ftn_core::{Artifacts, Compiler, Machine};
use ftn_fpga::DeviceModel;
use ftn_host::RunStats;
use ftn_interp::RtValue;
use proptest::prelude::*;

const JACOBI_F90: &str = include_str!("../benchmarks/jacobi.f90");
const HEAT_F90: &str = include_str!("../benchmarks/heat.f90");

fn jacobi_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(JACOBI_F90)
            .expect("jacobi compiles")
    })
}

fn heat_artifacts() -> &'static Artifacts {
    static CELL: OnceLock<Artifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        Compiler::default()
            .compile_source(HEAT_F90)
            .expect("heat compiles")
    })
}

/// `jacobi_kernel0(u, v, ext_u, ext_v, 2, n-1)` with the sweep's role
/// assignment: `src` is read (the kernel's `u` parameter), `dst` written.
fn jacobi_args(src: &str, dst: &str) -> Vec<ShardArg> {
    vec![
        ShardArg::Array(src.into()),
        ShardArg::Array(dst.into()),
        ShardArg::Extent(src.into()),
        ShardArg::Extent(dst.into()),
        ShardArg::Scalar(RtValue::Index(2)),
        ShardArg::ExtentOffset(src.into(), -1),
    ]
}

fn inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let u: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).sin() + 1.0).collect();
    let v: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).cos()).collect();
    (u, v)
}

/// Ping-pong `iters` Jacobi sweeps over a sharded session, refreshing the
/// split arrays' halos between launches.
fn run_sharded_jacobi(
    devices: usize,
    shards: usize,
    iters: usize,
    halo: usize,
    u0: &[f32],
    v0: &[f32],
) -> (Vec<f32>, Vec<f32>, ftn_cluster::SessionStats, RunStats) {
    let models = vec![DeviceModel::u280(); devices];
    let mut cluster = ClusterMachine::load(jacobi_artifacts(), &models).unwrap();
    let ua = cluster.host_f32(u0);
    let va = cluster.host_f32(v0);
    let sid = cluster
        .open_sharded_session(
            &[
                ("u", ua.clone(), MapKind::ToFrom, Partition::Split { halo }),
                ("v", va.clone(), MapKind::ToFrom, Partition::Split { halo }),
            ],
            ShardCount::Fixed(shards),
        )
        .unwrap();
    for k in 0..iters {
        let (src, dst) = if k % 2 == 0 { ("u", "v") } else { ("v", "u") };
        let ticket = cluster
            .sharded_launch(sid, "jacobi_kernel0", &jacobi_args(src, dst))
            .unwrap();
        cluster.wait_sharded(ticket).unwrap();
        if k + 1 < iters {
            let before = cluster.pool_stats().jobs;
            cluster.refresh_halos(sid).unwrap();
            let jobs = cluster.pool_stats().jobs - before;
            assert!(
                jobs <= devices as u64,
                "a refresh is at most one gather job per device, its apply \
                 rides on the next launch: ran {jobs} on {devices}"
            );
        }
    }
    let report = cluster.close_sharded_session(sid).unwrap();
    let u = cluster.read_f32(&ua);
    let v = cluster.read_f32(&va);
    (u, v, report.stats, cluster.pool_stats().totals)
}

/// `iters` ping-pong sweeps of the stencil program `func(n, [scalars..],
/// src, dst)` on `ftn_core::Machine`, one device, each sweep mapping both
/// whole arrays in and out — the single-device reference every sharded
/// variant must match bit-for-bit.
fn machine_sweeps(
    artifacts: &Artifacts,
    func: &str,
    scalars: &[RtValue],
    iters: usize,
    u0: &[f32],
    v0: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let mut machine = Machine::load(artifacts, DeviceModel::u280()).unwrap();
    let ua = machine.host_f32(u0);
    let va = machine.host_f32(v0);
    for k in 0..iters {
        let (src, dst) = if k % 2 == 0 { (&ua, &va) } else { (&va, &ua) };
        let mut args = vec![RtValue::I32(u0.len() as i32)];
        args.extend_from_slice(scalars);
        args.extend([src.clone(), dst.clone()]);
        machine.run(func, &args).unwrap();
    }
    (machine.read_f32(&ua), machine.read_f32(&va))
}

/// The same ping-pong loop through the whole-array front-ends
/// (`open_session` / `session_launch`) on one device.
fn run_plain_jacobi(
    n: usize,
    iters: usize,
    u0: &[f32],
    v0: &[f32],
) -> (Vec<f32>, Vec<f32>, ftn_cluster::SessionStats, RunStats) {
    let mut cluster = ClusterMachine::load(jacobi_artifacts(), &[DeviceModel::u280()]).unwrap();
    let ua = cluster.host_f32(u0);
    let va = cluster.host_f32(v0);
    let sid = cluster
        .open_session(&[
            ("u", ua.clone(), MapKind::ToFrom),
            ("v", va.clone(), MapKind::ToFrom),
        ])
        .unwrap();
    for k in 0..iters {
        let (src, dst) = if k % 2 == 0 {
            (ua.clone(), va.clone())
        } else {
            (va.clone(), ua.clone())
        };
        let args = vec![
            src,
            dst,
            RtValue::Index(n as i64),
            RtValue::Index(n as i64),
            RtValue::Index(2),
            RtValue::Index(n as i64 - 1),
        ];
        let ticket = cluster
            .session_launch(sid, "jacobi_kernel0", &args)
            .unwrap();
        cluster.wait(ticket.handle).unwrap();
    }
    let report = cluster.close_session(sid).unwrap();
    let u = cluster.read_f32(&ua);
    let v = cluster.read_f32(&va);
    (u, v, report.stats, cluster.pool_stats().totals)
}

fn assert_bits_eq(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label} element {i}: {g} vs {w}");
    }
}

/// Sharded Jacobi with halo refresh at N = 1/2/4 (and 4 shards on 2
/// devices) is bit-identical to the single-device program, a refresh moves
/// exactly the boundary rows in at most one job per device, and
/// two identical sharded runs produce exactly the same `RunStats` totals
/// (deterministic accounting).
#[test]
fn sharded_jacobi_with_halo_refresh_is_bit_identical_at_n124() {
    let n = 257usize;
    let iters = 6usize;
    let (u0, v0) = inputs(n);
    let (u_ref, v_ref) = machine_sweeps(jacobi_artifacts(), "jacobi", &[], iters, &u0, &v0);
    for (devices, shards) in [(1usize, 1usize), (2, 2), (4, 4), (2, 4)] {
        let label = format!("{shards} shards on {devices}");
        let (u, v, stats, totals) = run_sharded_jacobi(devices, shards, iters, 1, &u0, &v0);
        assert_bits_eq(&format!("{label}: u"), &u, &u_ref);
        assert_bits_eq(&format!("{label}: v"), &v, &v_ref);
        assert_eq!(stats.launches, (iters * shards) as u64);
        if shards > 1 {
            assert_eq!(stats.halo_refreshes, (iters - 1) as u64);
            assert!(stats.halo_rows > 0, "{label}: ghost rows must move");
        }
        // Boundary rows only — 16 B per refresh at 2 shards, 48 B at 4,
        // whatever `n` is: arrays x directions x seams x halo x row bytes.
        assert_eq!(
            stats.halo_bytes,
            (iters as u64 - 1) * 2 * 2 * (shards as u64 - 1) * 4,
            "{label}: a refresh moves exactly the ghost rows"
        );
        // Deterministic totals: an identical second run agrees exactly.
        let (_, _, stats2, totals2) = run_sharded_jacobi(devices, shards, iters, 1, &u0, &v0);
        assert_eq!(stats, stats2, "{label}: session stats must repeat");
        assert_eq!(totals, totals2, "{label}: RunStats totals must repeat");
    }
}

/// Two refreshes with no launch between: the second's gather carries the
/// first's patches (and a device it sends no gather to keeps them), the
/// launch after carries the rest — several shards to a device included,
/// whose first job writes every ghost block there before any kernel of the
/// launch writes a donor. Bit-identical to the single-device program.
#[test]
fn back_to_back_refreshes_then_a_launch_are_bit_identical() {
    let n = 131usize;
    let (u0, v0) = inputs(n);
    let (u_ref, v_ref) = machine_sweeps(jacobi_artifacts(), "jacobi", &[], 2, &u0, &v0);
    for (devices, shards) in [(2usize, 2usize), (4, 4), (2, 4), (1, 2), (1, 3), (3, 4)] {
        let label = format!("{shards} shards on {devices}");
        let models = vec![DeviceModel::u280(); devices];
        let mut cluster = ClusterMachine::load(jacobi_artifacts(), &models).unwrap();
        let (ua, va) = (cluster.host_f32(&u0), cluster.host_f32(&v0));
        let halo = Partition::Split { halo: 1 };
        let maps = [
            ("u", ua.clone(), MapKind::ToFrom, halo),
            ("v", va.clone(), MapKind::ToFrom, halo),
        ];
        let sid = (cluster.open_sharded_session(&maps, ShardCount::Fixed(shards))).unwrap();
        for (src, dst) in [("u", "v"), ("v", "u")] {
            let ticket = cluster.sharded_launch(sid, "jacobi_kernel0", &jacobi_args(src, dst));
            cluster.wait_sharded(ticket.unwrap()).unwrap();
            if src == "u" {
                assert!(cluster.refresh_halos(sid).unwrap().refreshed, "{label}");
                assert!(cluster.refresh_halos(sid).unwrap().refreshed, "{label}");
            }
        }
        cluster.close_sharded_session(sid).unwrap();
        assert_bits_eq(&format!("{label}: u"), &cluster.read_f32(&ua), &u_ref);
        assert_bits_eq(&format!("{label}: v"), &cluster.read_f32(&va), &v_ref);
    }
}

/// A session whose only halo array is `to`, beside a replicated one: the
/// close fetches nothing, so the last refresh's patches go to each device
/// in a job of their own, and every transfer is charged as when each
/// refresh's apply was its own job (totals pinned from that form). Two
/// passes on one machine leave host memory and device arenas where the
/// first left them.
#[test]
fn a_to_only_halo_session_applies_its_last_refresh_at_close() {
    // Read when each refresh's apply was a job of its own.
    const PINNED_TRANSFERS: (u64, f64) = (8, 0.000200098);
    let n = 96usize;
    let (u0, v0) = inputs(n);
    let models = vec![DeviceModel::u280(); 2];
    let mut cluster = ClusterMachine::load(jacobi_artifacts(), &models).unwrap();
    let mut marks = Vec::new();
    for _pass in 0..2 {
        let (ua, va) = (cluster.host_f32(&u0), cluster.host_f32(&v0));
        let maps = [
            ("u", ua.clone(), MapKind::To, Partition::Split { halo: 1 }),
            ("v", va.clone(), MapKind::To, Partition::Replicated),
        ];
        let sid = (cluster.open_sharded_session(&maps, ShardCount::Fixed(2))).unwrap();
        let ticket = cluster.sharded_launch(sid, "jacobi_kernel0", &jacobi_args("u", "v"));
        cluster.wait_sharded(ticket.unwrap()).unwrap();
        assert!(cluster.refresh_halos(sid).unwrap().refreshed);
        let report = cluster.close_sharded_session(sid).unwrap();
        assert_eq!(report.stats.fetched_downloads, 0, "nothing is fetched");
        assert_eq!(
            cluster.read_f32(&ua),
            u0,
            "a `to` array comes back as it went"
        );
        cluster.free_host(&ua).unwrap();
        cluster.free_host(&va).unwrap();
        let s = cluster.pool_stats();
        let arenas: Vec<usize> = s.devices.iter().map(|d| d.arena_buffers).collect();
        marks.push((s.host_buffers, s.host_bytes, arenas));
        if marks.len() == 1 {
            // Per pass: four staged uploads, one ghost row fetched by each
            // device's gather and one uploaded to each by its patches.
            assert_eq!(
                (s.totals.transfers, s.totals.transfer_seconds),
                PINNED_TRANSFERS
            );
        }
    }
    assert_eq!(marks[0], marks[1], "host memory and arenas end flat");
}

/// One shard with a halo declared: no seams exist, so refreshes are no-ops
/// and the session's accounting is exactly what the unsharded session
/// implementation reported for this workload before it was folded into the
/// sharded one (golden `SessionStats` / `RunStats` captured at that commit)
/// — whichever way the one-shard session is opened.
#[test]
fn one_shard_stencil_stats_match_plain_session() {
    let n = 129usize;
    let iters = 3usize;
    let (u0, v0) = inputs(n);
    let golden = ftn_cluster::SessionStats {
        launches: 3,
        staged_uploads: 2,
        staged_bytes: 1032,
        elided_transfers: 6,
        fetched_downloads: 2,
        ..Default::default()
    };
    let golden_totals = RunStats {
        kernel_seconds: 4.452e-5,
        kernel_wall_seconds: 5.0520000000000004e-5,
        transfer_seconds: 0.000100172,
        launches: 3,
        transfers: 4,
        total_cycles: 13356,
        launch_cycles: vec![4452; 3],
    };
    let (_, _, plain, plain_totals) = run_plain_jacobi(n, iters, &u0, &v0);
    let (_, _, shard, shard_totals) = run_sharded_jacobi(1, 1, iters, 1, &u0, &v0);
    assert_eq!(plain, golden, "open_session");
    assert_eq!(shard, golden, "Fixed(1): no seams → no refreshes counted");
    assert_eq!(plain_totals, golden_totals, "open_session");
    assert_eq!(shard_totals, golden_totals, "Fixed(1)");
}

/// The heat stencil (scalar coefficient in the kernel signature) through
/// the same sharded loop: bit-identical to the single-device program.
#[test]
fn sharded_heat_with_halo_refresh_is_bit_identical() {
    let n = 193usize;
    let iters = 4usize;
    let r = 0.125f32;
    let (u0, v0) = inputs(n);
    let heat_args = |src: &str, dst: &str| -> Vec<ShardArg> {
        vec![
            ShardArg::Array(src.into()),
            ShardArg::Array(dst.into()),
            ShardArg::Extent(src.into()),
            ShardArg::Extent(dst.into()),
            ShardArg::Scalar(RtValue::F32(r)),
            ShardArg::Scalar(RtValue::Index(2)),
            ShardArg::ExtentOffset(src.into(), -1),
        ]
    };
    let run = |devices: usize| -> (Vec<f32>, Vec<f32>) {
        let models = vec![DeviceModel::u280(); devices];
        let mut cluster = ClusterMachine::load(heat_artifacts(), &models).unwrap();
        let ua = cluster.host_f32(&u0);
        let va = cluster.host_f32(&v0);
        let sid = cluster
            .open_sharded_session(
                &[
                    (
                        "u",
                        ua.clone(),
                        MapKind::ToFrom,
                        Partition::Split { halo: 1 },
                    ),
                    (
                        "v",
                        va.clone(),
                        MapKind::ToFrom,
                        Partition::Split { halo: 1 },
                    ),
                ],
                ShardCount::Fixed(devices),
            )
            .unwrap();
        for k in 0..iters {
            let (src, dst) = if k % 2 == 0 { ("u", "v") } else { ("v", "u") };
            let ticket = cluster
                .sharded_launch(sid, "heat_kernel0", &heat_args(src, dst))
                .unwrap();
            cluster.wait_sharded(ticket).unwrap();
            if k + 1 < iters {
                cluster.refresh_halos(sid).unwrap();
            }
        }
        cluster.close_sharded_session(sid).unwrap();
        (cluster.read_f32(&ua), cluster.read_f32(&va))
    };
    let r_arg = [RtValue::F32(r)];
    let (u_ref, v_ref) = machine_sweeps(heat_artifacts(), "heat", &r_arg, iters, &u0, &v0);
    for devices in [1usize, 2, 4] {
        let (u, v) = run(devices);
        assert_bits_eq(&format!("heat N={devices} u"), &u, &u_ref);
        assert_bits_eq(&format!("heat N={devices} v"), &v, &v_ref);
    }
}

/// Wide-stencil sources (`v(i) = u(i-W) + u(i+W)`, loop `W+1 .. n-W`) for
/// halo widths the proptest sweeps, compiled once per width.
fn wide_artifacts(w: usize) -> Artifacts {
    static CELL: OnceLock<Mutex<HashMap<usize, Artifacts>>> = OnceLock::new();
    let cache = CELL.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap();
    cache
        .entry(w)
        .or_insert_with(|| {
            let src = format!(
                "subroutine stw(n, u, v)\n  implicit none\n  integer :: n, i\n  \
                 real :: u(n), v(n)\n  !$omp target parallel do\n  do i = {}, n - {w}\n    \
                 v(i) = u(i-{w}) + u(i+{w})\n  end do\nend subroutine stw\n",
                w + 1
            );
            Compiler::default()
                .compile_source(&src)
                .expect("wide stencil compiles")
        })
        .clone()
}

fn wide_args(w: usize, src: &str, dst: &str) -> Vec<ShardArg> {
    vec![
        ShardArg::Array(src.into()),
        ShardArg::Array(dst.into()),
        ShardArg::Extent(src.into()),
        ShardArg::Extent(dst.into()),
        ShardArg::Scalar(RtValue::Index(w as i64 + 1)),
        ShardArg::ExtentOffset(src.into(), -(w as i64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random grid sizes (including sizes not divisible by the shard
    /// count), shard counts, halo widths, and iteration counts: the
    /// halo-refresh path is bit-identical to a full gather + re-scatter
    /// oracle (the stencil program on one `Machine` device, both whole
    /// arrays mapped in and out every sweep, so every row passes through
    /// host memory between sweeps), and the refresh path leaks no host
    /// buffers or device arena entries.
    #[test]
    fn refresh_matches_gather_rescatter_oracle_for_random_shapes(
        n in 16usize..200,
        shards in 1usize..=4,
        w in 1usize..=3,
        iters in 1usize..=3,
    ) {
        let artifacts = wide_artifacts(w);
        let u0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
        let v0: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();
        let models = vec![DeviceModel::u280(); 4];

        // Halo-refresh path: one session for the whole loop. Run it twice
        // on one machine: the second pass must leave the pool exactly where
        // the first did (no host-buffer growth, no device-arena growth —
        // refresh move buffers and session staging are all transient). The
        // arena is read on the devices the pass used: a one-shard session
        // is placed round-robin, so its second pass lands on a fresh device.
        let mut cluster = ClusterMachine::load(&artifacts, &models).unwrap();
        let mut u_refresh = Vec::new();
        let mut v_refresh = Vec::new();
        let mut marks = Vec::new();
        for _pass in 0..2 {
            let ua = cluster.host_f32(&u0);
            let va = cluster.host_f32(&v0);
            let sid = cluster
                .open_sharded_session(
                    &[
                        ("u", ua.clone(), MapKind::ToFrom, Partition::Split { halo: w }),
                        ("v", va.clone(), MapKind::ToFrom, Partition::Split { halo: w }),
                    ],
                    ShardCount::Fixed(shards),
                )
                .unwrap();
            let used = cluster.session_info(sid).unwrap().devices;
            for k in 0..iters {
                let (src, dst) = if k % 2 == 0 { ("u", "v") } else { ("v", "u") };
                let ticket = cluster
                    .sharded_launch(sid, "stw_kernel0", &wide_args(w, src, dst))
                    .unwrap();
                cluster.wait_sharded(ticket).unwrap();
                if k + 1 < iters {
                    cluster.refresh_halos(sid).unwrap();
                }
            }
            cluster.close_sharded_session(sid).unwrap();
            u_refresh = cluster.read_f32(&ua);
            v_refresh = cluster.read_f32(&va);
            cluster.free_host(&ua).unwrap();
            cluster.free_host(&va).unwrap();
            let s = cluster.pool_stats();
            let arena: Vec<usize> = used.iter().map(|&d| s.devices[d].arena_buffers).collect();
            marks.push((s.host_buffers, s.host_bytes, arena));
        }
        prop_assert_eq!(
            &marks[0], &marks[1],
            "repeated stencil sessions must not leak host buffers or arena entries"
        );

        // Oracle: gather + re-scatter every iteration, on one device.
        let (u_oracle, v_oracle) = machine_sweeps(&artifacts, "stw", &[], iters, &u0, &v0);

        for i in 0..n {
            prop_assert_eq!(
                u_refresh[i].to_bits(), u_oracle[i].to_bits(),
                "n={} shards={} w={} iters={} u[{}]: {} vs {}",
                n, shards, w, iters, i, u_refresh[i], u_oracle[i]
            );
            prop_assert_eq!(
                v_refresh[i].to_bits(), v_oracle[i].to_bits(),
                "n={} shards={} w={} iters={} v[{}]: {} vs {}",
                n, shards, w, iters, i, v_refresh[i], v_oracle[i]
            );
        }
    }
}
