//! The row exchange — the one mechanism that moves rows between the shard
//! mirrors of a live session. An inter-launch halo refresh and a migration
//! epoch are the same act with different plans: resolve each
//! [`ftn_shard::RowTransferPlan`] block to a donor and a recipient mirror,
//! then run two device phases.
//!
//! 1. **Gather** ([`ClusterMachine::exchange_gather`]) — every block whose
//!    donor and recipient live on *different devices* is fetched
//!    device→host into a dedicated move buffer, one `fetch_rows` job per
//!    donor device. Same-device blocks need no gather.
//! 2. **Apply** ([`ClusterMachine::exchange_apply`]) — one `RowPatch` job
//!    per recipient device writes every block into its target mirror:
//!    host-bounced blocks from their landed move buffers, same-device
//!    blocks mirror-to-mirror (free — nothing crosses PCIe).
//!
//! [`ClusterMachine::exchange_finish`] then frees the move buffers and hands
//! over to the caller-specific tail (the exchange's `finish` closure): the
//! stats fold of a refresh, or an epoch's sub-buffer swap and session
//! reinstate.
//! Each phase's jobs are submitted under the machine and waited by the
//! caller — synchronously ([`ClusterMachine::exchange_run`]) or with the
//! machine lock released between phases (`PoolGate`'s phased driver). Every
//! handle of a phase is waited even after one fails, so by the time an
//! exchange finishes nothing is in flight over the buffers it frees.
//!
//! No quiesce is built in: worker queues are FIFO, so the gather runs after
//! every kernel already queued on the donor's device, and the wait between
//! the phases orders the exchange across devices.

use std::collections::BTreeMap;
use std::time::Instant;

use ftn_core::CompileError;
use ftn_interp::BufferId;
use ftn_shard::{Partition, RowTransferPlan, ShardRange};

use crate::machine::{BufState, ClusterMachine, LaunchHandle};
use crate::pool::{PatchBlock, RowFetch, RowPatch};
use crate::sharded::{no_session, HaloRefreshReport};

/// The names one caller's exchanges carry on the trace timeline — the only
/// thing the executor needs to know about who it serves.
pub(crate) struct ExchangeLabels {
    /// Span around the gather fan-out.
    pub gather: &'static str,
    /// Span around the apply fan-out.
    pub apply: &'static str,
    /// Worker-lane span of the apply jobs.
    pub job: &'static str,
}

const HALO: ExchangeLabels = ExchangeLabels {
    gather: "halo.gather",
    apply: "halo.splice",
    job: "job.halo_refresh",
};

/// One array's share of an exchange: its plan plus what the plan's shard
/// indices resolve to.
pub(crate) struct ArrayBlocks {
    /// Element type name (move buffers are allocated with it).
    pub elem: String,
    /// Per shard: the sub-buffer whose mirror donates rows.
    pub donors: Vec<BufferId>,
    /// Per shard: the sub-buffer whose mirror receives rows.
    pub recipients: Vec<BufferId>,
    /// The blocks to move.
    pub plan: RowTransferPlan,
}

/// One plan block resolved against the session's buffers and devices.
struct Transfer {
    donor: BufferId,
    target: BufferId,
    target_device: usize,
    src: usize,
    dst: usize,
    len: usize,
    /// The move buffer the block bounces through when donor and target
    /// live on different devices; `None` for a mirror-to-mirror copy.
    via: Option<BufferId>,
}

/// The caller-specific tail of an exchange, run once the move buffers are
/// freed: fold statistics (and, for an epoch, swap sub-buffers and put the
/// session back) and build the caller's report. Arguments: the machine, the
/// operation's span, its wall seconds, and whether every phase succeeded —
/// it runs on the error path too, where the report is discarded in favour
/// of the error.
type Finish<R> = Box<dyn FnOnce(&mut ClusterMachine, &mut ftn_trace::Span, f64, bool) -> R>;

/// An exchange suspended between phases: the current phase's device traffic
/// has been submitted but not yet waited.
pub(crate) struct RowExchange<R> {
    session: u64,
    labels: &'static ExchangeLabels,
    transfers: Vec<Transfer>,
    /// Targets that have no mirror yet: the apply creates them.
    fresh: Vec<BufferId>,
    /// Staged-upload accounting folded from the apply tickets.
    staged: u64,
    staged_bytes: u64,
    /// Handles of the phase just submitted (gather, then apply).
    handles: Vec<LaunchHandle>,
    /// First error hit by any phase; later phases are skipped when set.
    failed: Option<CompileError>,
    started: Instant,
    span: ftn_trace::Span,
    finish: Finish<R>,
}

impl<R> RowExchange<R> {
    /// An exchange with nothing submitted yet. `fresh` names the
    /// recipients that have no mirror: the apply creates them. `started`
    /// and `span` cover the caller's whole operation, planning included.
    pub(crate) fn new(
        session: u64,
        labels: &'static ExchangeLabels,
        span: ftn_trace::Span,
        started: Instant,
        fresh: Vec<BufferId>,
        finish: impl FnOnce(&mut ClusterMachine, &mut ftn_trace::Span, f64, bool) -> R + 'static,
    ) -> Box<RowExchange<R>> {
        Box::new(RowExchange {
            session,
            labels,
            transfers: Vec::new(),
            fresh,
            staged: 0,
            staged_bytes: 0,
            handles: Vec::new(),
            failed: None,
            started,
            span,
            finish: Box::new(finish),
        })
    }

    fn fail(&mut self, err: CompileError) {
        self.failed.get_or_insert(err);
    }

    /// Wait every handle of the phase just submitted with `wait` — the
    /// machine's blocking wait, or the gate's off-lock park. First error
    /// wins; the remaining handles are still waited so the exchange's
    /// buffers are quiescent when it finishes.
    pub(crate) fn wait_phase(
        &mut self,
        mut wait: impl FnMut(LaunchHandle) -> Result<crate::ClusterRunReport, CompileError>,
    ) {
        for h in std::mem::take(&mut self.handles) {
            if let Err(e) = wait(h) {
                self.fail(e);
            }
        }
    }
}

/// What a begin step decided.
pub(crate) enum ExchangePhase<R> {
    /// Nothing moves: the operation is over and the report is final.
    Done(R),
    /// The gather is submitted: wait the phase, apply, wait again, finish.
    Run(Box<RowExchange<R>>),
}

impl ClusterMachine {
    /// Exchange every mapped split array's halo ghost rows with their
    /// current owner rows — the inter-launch primitive iterative stencils
    /// need between sweeps. Only boundary blocks travel: a block whose
    /// owner shard lives on another device is fetched device→host into a
    /// dedicated move buffer and spliced host→device into the recipient's
    /// mirror (two boundary-sized PCIe hops — never a full-array
    /// gather/re-scatter); a block whose owner shares the recipient's
    /// device copies mirror-to-mirror for free. Owned rows never move and
    /// host memory is never brought up to date (device copies stay
    /// authoritative until close).
    ///
    /// No quiesce precedes the exchange: worker queues are FIFO, so the
    /// donor fetches run after every kernel already queued on their
    /// devices, and the wait between the gather and splice phases orders
    /// the exchange across devices.
    ///
    /// Synchronous composition of the exchange phases — a caller that must
    /// not block other sessions runs the same phases with the machine lock
    /// released between them (see [`crate::PoolGate::refresh_phased`]).
    ///
    /// # Example
    ///
    /// One Jacobi sweep across two devices, ghosts refreshed between
    /// launches:
    ///
    /// ```
    /// use ftn_cluster::{ClusterMachine, MapKind, Partition, ShardArg, ShardCount};
    /// use ftn_fpga::DeviceModel;
    ///
    /// let src = "subroutine jacobi(n, u, v)\n  implicit none\n  integer :: n, i\n  real :: u(n), v(n)\n  !$omp target parallel do\n  do i = 2, n - 1\n    v(i) = 0.5 * (u(i-1) + u(i+1))\n  end do\n  !$omp end target parallel do\nend subroutine jacobi\n";
    /// let artifacts = ftn_core::Compiler::default().compile_source(src)?;
    /// let mut pool = ClusterMachine::load(&artifacts, &vec![DeviceModel::u280(); 2])?;
    /// let u = pool.host_f32(&[1.0; 64]);
    /// let v = pool.host_f32(&[0.0; 64]);
    /// let sid = pool.open_sharded_session(
    ///     &[
    ///         ("u", u, MapKind::ToFrom, Partition::Split { halo: 1 }),
    ///         ("v", v, MapKind::ToFrom, Partition::Split { halo: 1 }),
    ///     ],
    ///     ShardCount::Fixed(2),
    /// )?;
    /// let args = [
    ///     ShardArg::Array("u".into()),
    ///     ShardArg::Array("v".into()),
    ///     ShardArg::Extent("u".into()),
    ///     ShardArg::Extent("v".into()),
    ///     ShardArg::Scalar(ftn_interp::RtValue::Index(2)),
    ///     ShardArg::ExtentOffset("u".into(), -1),
    /// ];
    /// let t = pool.sharded_launch(sid, "jacobi_kernel0", &args)?;
    /// pool.wait_sharded(t)?;
    /// let report = pool.refresh_halos(sid)?;
    /// assert!(report.refreshed && report.halo_rows > 0);
    /// pool.close_sharded_session(sid)?;
    /// # Ok::<(), ftn_core::CompileError>(())
    /// ```
    pub fn refresh_halos(&mut self, session: u64) -> Result<HaloRefreshReport, CompileError> {
        let phase = self.halo_begin(session)?;
        self.exchange_run(phase)
    }

    /// Plan a halo refresh — every split array's ghost blocks, donated by
    /// the shards that own the rows — and submit its gather. Unlike a
    /// migration epoch the session *stays in the table*: no rows change
    /// owners and no sub-buffer is replaced, so nothing a concurrent wait
    /// could observe is torn down.
    pub(crate) fn halo_begin(
        &mut self,
        session: u64,
    ) -> Result<ExchangePhase<HaloRefreshReport>, CompileError> {
        let s = self
            .sessions
            .get(&session)
            .ok_or_else(|| CompileError::new("cluster-shard", no_session(session)))?;
        let started = Instant::now();
        let mut span = ftn_trace::span("session.refresh_halos", "cluster");
        span.arg("session", session);
        let devices = s.devices.clone();
        // Arrays with a refreshed ghost block, ghost rows refreshed
        // (device-local copies included), and their bytes, counted once
        // per block.
        let (mut refreshed, mut rows, mut bytes) = (0usize, 0u64, 0u64);
        let mut arrays = Vec::new();
        for a in s.env.arrays() {
            if !matches!(a.partition, Partition::Split { .. }) {
                continue;
            }
            let ranges: Vec<ShardRange> = a.slices.iter().map(|sl| sl.range).collect();
            let recipients = ranges.iter().copied().enumerate();
            let plan = RowTransferPlan::ghost_blocks(recipients, &ranges, a.row_elems);
            if plan.blocks.is_empty() {
                continue;
            }
            let elems: usize = plan.blocks.iter().map(|b| b.len).sum();
            let sub = self.memory.get(a.slices[0].memref.buffer);
            refreshed += 1;
            rows += (elems / a.row_elems) as u64;
            bytes += (elems * (sub.byte_len() / sub.len().max(1))) as u64;
            let buffers: Vec<BufferId> = a.slices.iter().map(|sl| sl.memref.buffer).collect();
            arrays.push(ArrayBlocks {
                elem: a.elem.clone(),
                donors: buffers.clone(),
                recipients: buffers,
                plan,
            });
        }
        if arrays.is_empty() {
            // A single shard, or no mapped array carries halos.
            return Ok(ExchangePhase::Done(HaloRefreshReport {
                session,
                refreshed: false,
                arrays: 0,
                halo_rows: 0,
                halo_bytes: 0,
                seconds: started.elapsed().as_secs_f64(),
            }));
        }
        span.arg("arrays", refreshed);
        span.arg("halo_rows", rows);
        let finish = move |m: &mut ClusterMachine, span: &mut ftn_trace::Span, seconds, ok| {
            if ok {
                span.arg("halo_bytes", bytes);
                if let Some(s) = m.sessions.get_mut(&session) {
                    s.stats.halo_refreshes += 1;
                    s.stats.halo_rows += rows;
                    s.stats.halo_bytes += bytes;
                }
                m.metrics.halo_refreshes.inc();
                m.metrics.halo_bytes.add(bytes);
            }
            HaloRefreshReport {
                session,
                refreshed: true,
                arrays: refreshed,
                halo_rows: rows,
                halo_bytes: bytes,
                seconds,
            }
        };
        let mut ex = RowExchange::new(session, &HALO, span, started, Vec::new(), finish);
        self.exchange_gather(&mut ex, &devices, arrays);
        Ok(ExchangePhase::Run(ex))
    }

    /// Phase 1 of an exchange: resolve every plan block against the
    /// session's buffers and `devices` (shard → device), allocate a move
    /// buffer per cross-device block, and submit the gather — one
    /// `fetch_rows` job per donor device (none when every block is
    /// same-device). The caller waits the exchange's phase, then drives
    /// [`ClusterMachine::exchange_apply`] and
    /// [`ClusterMachine::exchange_finish`].
    pub(crate) fn exchange_gather<R>(
        &mut self,
        ex: &mut RowExchange<R>,
        devices: &[usize],
        arrays: Vec<ArrayBlocks>,
    ) {
        let labels = ex.labels;
        let mut fetches: BTreeMap<usize, Vec<RowFetch>> = BTreeMap::new();
        'arrays: for a in &arrays {
            for b in &a.plan.blocks {
                let donor = a.donors[b.donor_shard];
                let (donor_device, target_device) =
                    (devices[b.donor_shard], devices[b.recipient_shard]);
                let mut via = None;
                if donor_device != target_device {
                    let mv = match self.memory.alloc_zeroed(&a.elem, b.len, 0) {
                        Ok(id) => id,
                        Err(e) => {
                            ex.fail(CompileError::new("cluster-exchange", e.to_string()));
                            break 'arrays;
                        }
                    };
                    self.buffers.insert(mv, BufState::default());
                    let start = b.src_elem;
                    #[cfg(test)]
                    let start = match std::mem::take(&mut self.corrupt_next_gather) {
                        true => usize::MAX / 2,
                        false => start,
                    };
                    fetches.entry(donor_device).or_default().push(RowFetch {
                        src: donor,
                        dst: mv,
                        start,
                        len: b.len,
                        version: 1,
                    });
                    via = Some(mv);
                }
                ex.transfers.push(Transfer {
                    donor,
                    target: a.recipients[b.recipient_shard],
                    target_device,
                    src: b.src_elem,
                    dst: b.dst_elem,
                    len: b.len,
                    via,
                });
            }
        }
        if ex.failed.is_none() {
            let mut sp = ftn_trace::span(labels.gather, "epoch");
            sp.arg("devices", fetches.len());
            let (handles, err) =
                self.fan_out(fetches, |m, device, rows| m.submit_fetch_rows(device, rows));
            ex.handles = handles;
            if let Some(e) = err {
                ex.fail(e);
            }
        }
    }

    /// Phase 2 of an exchange (after the gather is waited): write every
    /// block into its target mirror — host-bounced blocks resolved from
    /// their landed move buffers, same-device blocks as mirror-to-mirror
    /// copies — one patch job per recipient device. No-op when a prior
    /// phase failed.
    pub(crate) fn exchange_apply<R>(&mut self, ex: &mut RowExchange<R>) {
        if ex.failed.is_some() {
            return;
        }
        let mut per_device: BTreeMap<usize, Vec<RowPatch>> = BTreeMap::new();
        for t in &ex.transfers {
            let block = match t.via {
                Some(mv) => PatchBlock::Host {
                    dst: t.dst,
                    contents: self.memory.get(mv).clone(),
                },
                None => PatchBlock::Local {
                    dst: t.dst,
                    donor: t.donor,
                    src: t.src,
                    len: t.len,
                },
            };
            // A target's blocks are consecutive (plans group by recipient).
            let patches = per_device.entry(t.target_device).or_default();
            match patches.last_mut().filter(|p| p.target == t.target) {
                Some(patch) => patch.blocks.push(block),
                None => patches.push(RowPatch {
                    target: t.target,
                    create: ex
                        .fresh
                        .contains(&t.target)
                        .then(|| self.memory.get(t.target).len()),
                    blocks: vec![block],
                }),
            }
        }
        let mut sp = ftn_trace::span(ex.labels.apply, "epoch");
        sp.arg("devices", per_device.len());
        let job = ex.labels.job;
        let (mut staged, mut staged_bytes) = (0u64, 0u64);
        let (handles, err) = self.fan_out(per_device, |m, device, patches| {
            let t = m.submit_row_patch(device, patches, job)?;
            staged += t.staged;
            staged_bytes += t.staged_bytes;
            Ok(t.handle)
        });
        ex.staged += staged;
        ex.staged_bytes += staged_bytes;
        ex.handles = handles;
        if let Some(e) = err {
            ex.fail(e);
        }
    }

    /// Final phase of an exchange (after the apply is waited): free the
    /// move buffers, run the caller's tail, and fold the apply's staged
    /// uploads into the session. Returns the caller's report — or the first
    /// failing phase's error, with every move buffer freed regardless.
    pub(crate) fn exchange_finish<R>(&mut self, ex: RowExchange<R>) -> Result<R, CompileError> {
        // Move buffers are exchange-transient on every path, and were never
        // mirrored on a device: row fetches write back without creating
        // mirror entries, and patches carry contents by value.
        for mv in ex.transfers.iter().filter_map(|t| t.via) {
            self.buffers.remove(&mv);
            self.memory.free(mv);
        }
        let mut span = ex.span;
        let seconds = ex.started.elapsed().as_secs_f64();
        let ok = ex.failed.is_none();
        let report = (ex.finish)(self, &mut span, seconds, ok);
        if let Some(s) = self.sessions.get_mut(&ex.session) {
            s.stats.staged_uploads += ex.staged;
            s.stats.staged_bytes += ex.staged_bytes;
        }
        ex.failed.map_or(Ok(report), Err)
    }

    /// Synchronous composition of the exchange phases: every phase's device
    /// traffic is waited under this machine before the next begins.
    pub(crate) fn exchange_run<R>(&mut self, phase: ExchangePhase<R>) -> Result<R, CompileError> {
        match phase {
            ExchangePhase::Done(report) => Ok(report),
            ExchangePhase::Run(mut ex) => {
                ex.wait_phase(|h| self.wait(h));
                self.exchange_apply(&mut ex);
                ex.wait_phase(|h| self.wait(h));
                self.exchange_finish(*ex)
            }
        }
    }
}
