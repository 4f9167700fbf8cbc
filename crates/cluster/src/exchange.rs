//! The row exchange — the one mechanism that moves a session's rows, all
//! its life: an open, an inter-launch halo refresh and a close are the same
//! act with different plans. Each block is resolved to
//! where its rows come from and where they go, then it runs in two halves.
//!
//! 1. **Gather** ([`ClusterMachine::exchange_gather`] /
//!    [`ClusterMachine::exchange_fetch`]) — device→host `fetch_rows` jobs:
//!    one per donor device for a refresh's blocks whose donor and
//!    recipient live on *different devices*, each into a dedicated move
//!    buffer; one per shard for a close's `from`/`tofrom` sub-buffers,
//!    whole. Same-device blocks need no gather, and an open gathers nothing.
//! 2. **Apply** ([`ClusterMachine::exchange_apply`]) — `RowPatch`es, one
//!    group per recipient device (per shard for an open), write every block
//!    into its target mirror: an open's mirrors are created from the rows
//!    cut from the caller's array (or a seed), a refresh's host-bounced
//!    blocks arrive as host contents and its same-device blocks for free. A
//!    close applies nothing. An open's groups are jobs of their own,
//!    submitted with its plan. A refresh's are not: they are appended to
//!    the session and **ride on its next job to each device** — a launch's,
//!    a later refresh's gather or the close's (see
//!    [`ClusterMachine::ride`]) — which writes them before its own work.
//!
//! Each exchange submits one round of jobs — a gather, or an open's
//! staging — queued on their devices under the machine as each is planned
//! (a round of one job to an idle device is left unwoken and run by its
//! waiter), and waited by the caller: synchronously
//! ([`ClusterMachine::exchange_run`]) or with the machine lock released
//! (`PoolGate`'s phased driver). Every handle is waited even after one
//! fails, so nothing is in flight over the buffers the exchange frees: the
//! one rollback path a session's data movement has. Then
//! [`ClusterMachine::exchange_finish`] applies (a refresh's patches join
//! the session), frees the move buffers — each patch owns its rows — and
//! hands over to the caller-specific tail (the exchange's `finish`
//! closure): the session enters the table (open), gets its stats
//! (refresh), or is gathered, freed and leaves the table (close).
//!
//! No quiesce is built in: each device runs its messages from its one
//! queue in the order they were sent, whoever runs them, so the gather
//! runs after every kernel already sent to the donor's device, and a
//! riding patch is written before anything its session sends to that
//! device after the refresh.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ftn_core::CompileError;
use ftn_interp::{Buffer, BufferId};
use ftn_shard::{Partition, RowTransferPlan, ShardRange};

use crate::machine::{ClusterMachine, LaunchHandle};
use crate::pool::{empty_like, Create, PatchBlock, RowFetch, RowPatch};
use crate::sharded::{no_session, HaloRefreshReport};

/// The names one caller's exchanges carry on the trace timeline, phase by
/// phase — the only thing the executor needs to know about who it serves.
/// A phase the caller has no traffic for submits nothing and shows nothing.
pub(crate) struct ExchangeLabels {
    /// Span around the gather fan-out.
    pub gather: &'static str,
    /// Span around the apply's planning (and an open's fan-out).
    pub apply: &'static str,
}

const HALO: ExchangeLabels = ExchangeLabels {
    gather: "halo.gather",
    apply: "halo.splice",
};

/// The gather's jobs in submission order: `(donor device, its fetches)`.
pub(crate) type Fetches = Vec<(usize, Vec<RowFetch>)>;

/// One array's share of an exchange: its plan plus what the plan's shard
/// indices resolve to.
pub(crate) struct ArrayBlocks {
    /// Per shard: the sub-buffer whose mirror donates and receives rows.
    pub buffers: Vec<BufferId>,
    /// The blocks to move.
    pub plan: RowTransferPlan,
}

/// One block the apply writes, resolved to its target mirror.
struct Transfer {
    target: BufferId,
    target_device: usize,
    /// Blocks with one key travel in one job, jobs are submitted in key
    /// order: the target device (refresh) or the shard (open).
    job: usize,
    rows: Rows,
}

/// Where a block's rows come from.
enum Rows {
    /// The block is the whole mirror, which starts as it: rows cut from the
    /// caller's array, or a seed.
    Whole(Create),
    /// A donor mirror on the target's device.
    Ready(PatchBlock),
    /// A donor mirror on another device: the gather lands the rows in move
    /// buffer `via`, and the apply writes them at `dst`.
    Bounced { via: BufferId, dst: usize },
}

/// The caller-specific tail of an exchange, run once the move buffers are
/// freed: fold statistics, put the session into the table, back into it or
/// take it out, and build the caller's report. Arguments: the machine, the
/// operation's span, its wall seconds, and whether every phase succeeded —
/// it runs on the error path too, where it rolls the caller's own
/// allocations back and the report is discarded in favour of the error.
type Finish<R> = Box<dyn FnOnce(&mut ClusterMachine, &mut ftn_trace::Span, f64, bool) -> R>;

/// An exchange suspended at its round: the round's device traffic has been
/// submitted but not yet waited.
pub(crate) struct RowExchange<R> {
    session: u64,
    labels: &'static ExchangeLabels,
    /// The blocks the apply has yet to plan.
    transfers: Vec<Transfer>,
    /// Move buffers of the bounced blocks, freed when the exchange finishes.
    moves: Vec<BufferId>,
    /// Staged-upload accounting of the apply's patches.
    staged: u64,
    staged_bytes: u64,
    /// Handles of the round submitted: the gather, or an open's staging.
    handles: Vec<LaunchHandle>,
    /// First error hit by any phase; later phases are skipped when set.
    failed: Option<CompileError>,
    started: Instant,
    span: ftn_trace::Span,
    finish: Finish<R>,
}

impl<R> RowExchange<R> {
    /// An exchange with nothing submitted yet. `started` and `span` cover
    /// the caller's whole operation, planning included.
    pub(crate) fn new(
        session: u64,
        labels: &'static ExchangeLabels,
        span: ftn_trace::Span,
        started: Instant,
        finish: impl FnOnce(&mut ClusterMachine, &mut ftn_trace::Span, f64, bool) -> R + 'static,
    ) -> Box<RowExchange<R>> {
        Box::new(RowExchange {
            session,
            labels,
            transfers: Vec::new(),
            moves: Vec::new(),
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

    /// Plan a block whose rows need no gather (a session open's): the apply
    /// creates `target`'s mirror on `shard`'s `device` as `rows`.
    pub(crate) fn stage(&mut self, target: BufferId, shard: usize, device: usize, rows: Create) {
        self.transfers.push(Transfer {
            target,
            target_device: device,
            job: shard,
            rows: Rows::Whole(rows),
        });
    }

    /// Wait every handle of the round submitted with `wait` — the
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
    /// Wait the submitted round, then finish.
    Run(Box<RowExchange<R>>),
}

impl ClusterMachine {
    /// Exchange every mapped split array's halo ghost rows with their
    /// current owner rows — the inter-launch primitive iterative stencils
    /// need between sweeps. Only boundary blocks travel: a block whose
    /// owner shard lives on another device is fetched device→host into a
    /// dedicated move buffer, waited here, and queued host→device ahead of
    /// the session's next job to the recipient's device (two boundary-sized
    /// PCIe hops — never a full-array gather/re-scatter); a block whose
    /// owner shares the recipient's device is queued there as a free
    /// mirror-to-mirror copy. Owned rows never move and host memory is
    /// never brought up to date (device copies stay authoritative until
    /// close).
    ///
    /// Synchronous composition of the exchange — a caller that must not
    /// block other sessions waits the gather with the machine lock released
    /// (see [`crate::PoolGate::refresh_phased`]).
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
    /// the shards that own the rows — and submit its gather, whose jobs
    /// carry the patches of the refresh before. No rows change owners and no
    /// sub-buffer is replaced.
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
            let plan = RowTransferPlan::ghost_blocks(&ranges, a.row_elems);
            if plan.blocks.is_empty() {
                continue;
            }
            let elems: usize = plan.blocks.iter().map(|b| b.len).sum();
            let global = self.memory.get(a.global.buffer);
            refreshed += 1;
            rows += (elems / a.row_elems) as u64;
            bytes += (elems * (global.byte_len() / global.len().max(1))) as u64;
            let buffers = a.slices.iter().map(|sl| sl.memref.buffer).collect();
            arrays.push(ArrayBlocks { buffers, plan });
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
        let mut ex = RowExchange::new(session, &HALO, span, started, finish);
        self.exchange_gather(&mut ex, &devices, arrays);
        Ok(ExchangePhase::Run(ex))
    }

    /// Phase 1 of a refresh: resolve every plan block against
    /// the session's buffers and `devices` (shard → device), allocate a move
    /// buffer per cross-device block, and submit the gather of those (none
    /// when every block is same-device).
    fn exchange_gather<R>(
        &mut self,
        ex: &mut RowExchange<R>,
        devices: &[usize],
        arrays: Vec<ArrayBlocks>,
    ) {
        let mut fetches: BTreeMap<usize, Vec<RowFetch>> = BTreeMap::new();
        for a in &arrays {
            for b in &a.plan.blocks {
                let donor = a.buffers[b.donor_shard];
                let (donor_device, target_device) =
                    (devices[b.donor_shard], devices[b.recipient_shard]);
                let rows = if donor_device == target_device {
                    Rows::Ready(PatchBlock::Local {
                        dst: b.dst_elem,
                        donor,
                        src: b.src_elem,
                        len: b.len,
                    })
                } else {
                    let like = empty_like(self.memory.get(donor), b.len);
                    let via = self.memory.alloc(like, 0);
                    ex.moves.push(via);
                    fetches.entry(donor_device).or_default().push(RowFetch {
                        src: donor,
                        dst: via,
                        start: b.src_elem,
                        len: b.len,
                    });
                    let dst = b.dst_elem;
                    Rows::Bounced { via, dst }
                };
                ex.transfers.push(Transfer {
                    target: a.buffers[b.recipient_shard],
                    target_device,
                    job: target_device,
                    rows,
                });
            }
        }
        self.exchange_fetch(ex, fetches.into_iter().collect());
    }

    /// Phase 1 of any exchange that gathers: submit `fetches`, one
    /// `fetch_rows` job per entry, each taking the session's patches riding
    /// on its device. The caller waits the round, then drives
    /// [`ClusterMachine::exchange_finish`].
    pub(crate) fn exchange_fetch<R>(&mut self, ex: &mut RowExchange<R>, fetches: Fetches) {
        #[cfg(test)]
        let mut fetches = fetches;
        #[cfg(test)]
        if let Some(rf) = fetches.iter_mut().find_map(|(_, rows)| rows.first_mut()) {
            if std::mem::take(&mut self.corrupt_next_gather) {
                rf.start = usize::MAX / 2;
            }
        }
        let mut sp = ftn_trace::span(ex.labels.gather, "exchange");
        sp.arg(
            "devices",
            distinct(fetches.iter().map(|(device, _)| *device)),
        );
        let (handles, err) = self.fan_out(fetches, |m, device, rows| {
            m.plan_fetch(device, rows, ex.session)
        });
        ex.handles = handles;
        if let Some(e) = err {
            ex.fail(e);
        }
    }

    /// Phase 2 of an exchange (an open's with its plan, any other's after
    /// the gather is waited): plan every block's write into its target
    /// mirror — host-bounced blocks resolved from their landed move buffers,
    /// the rest as planned — one group of patches per job key, their uploads
    /// counted as staged. An open's groups are its jobs; a refresh's ride on
    /// its session. No-op when the gather failed or nothing is left to write
    /// (a close).
    pub(crate) fn exchange_apply<R>(&mut self, ex: &mut RowExchange<R>) {
        if ex.failed.is_some() || ex.transfers.is_empty() {
            return;
        }
        let mut jobs: BTreeMap<usize, (usize, Vec<RowPatch>)> = BTreeMap::new();
        for t in std::mem::take(&mut ex.transfers) {
            let (_, patches) = jobs.entry(t.job).or_insert((t.target_device, Vec::new()));
            let block = match t.rows {
                Rows::Whole(rows) => {
                    patches.push(RowPatch {
                        target: t.target,
                        create: Some(rows),
                        blocks: Vec::new(),
                    });
                    continue;
                }
                Rows::Ready(block) => block,
                // The move buffer has served: its rows travel on, uncopied.
                Rows::Bounced { via, dst } => PatchBlock::Host {
                    dst,
                    contents: std::mem::replace(self.memory.get_mut(via), Buffer::I1(Vec::new())),
                },
            };
            // A target's blocks are consecutive (plans group by recipient).
            match patches.last_mut().filter(|p| p.target == t.target) {
                Some(patch) => patch.blocks.push(block),
                None => patches.push(RowPatch {
                    target: t.target,
                    create: None,
                    blocks: vec![block],
                }),
            }
        }
        let mut sp = ftn_trace::span(ex.labels.apply, "exchange");
        sp.arg(
            "devices",
            distinct(jobs.values().map(|(device, _)| *device)),
        );
        let uploads = jobs
            .values()
            .flat_map(|(_, p)| p)
            .flat_map(RowPatch::uploads);
        (ex.staged, ex.staged_bytes) = uploads.fold((0, 0), |(n, b), up| (n + 1, b + up as u64));
        self.staged_uploads += ex.staged;
        self.staged_bytes += ex.staged_bytes;
        // A refresh's patches ride on its session; an open's session
        // enters the table only as its exchange finishes.
        if let Some(s) = self.sessions.get_mut(&ex.session) {
            for (device, patches) in jobs.into_values() {
                s.riding.entry(device).or_default().extend(patches);
            }
            return;
        }
        let jobs = jobs.into_values().collect();
        let (handles, err) =
            self.fan_out(jobs, |m, device, patches| m.plan_row_patch(device, patches));
        ex.handles = handles;
        if let Some(e) = err {
            ex.fail(e);
        }
    }

    /// Final phase of an exchange (after its round is waited): apply (see
    /// [`ClusterMachine::exchange_apply`]), free the move buffers, run the
    /// caller's tail, and fold the apply's staged uploads into the session.
    /// Returns the caller's report — or the first failing phase's error,
    /// with every move buffer freed regardless.
    pub(crate) fn exchange_finish<R>(&mut self, mut ex: RowExchange<R>) -> Result<R, CompileError> {
        self.exchange_apply(&mut ex);
        // Move buffers are exchange-transient on every path, and were never
        // mirrored on a device: row fetches write back without creating
        // mirror entries, and patches carry contents by value.
        for mv in ex.moves {
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

    /// Synchronous composition of the exchange phases: the round's device
    /// traffic is waited under this machine before the exchange finishes.
    pub(crate) fn exchange_run<R>(&mut self, phase: ExchangePhase<R>) -> Result<R, CompileError> {
        match phase {
            ExchangePhase::Done(report) => Ok(report),
            ExchangePhase::Run(mut ex) => {
                ex.wait_phase(|h| self.finish_and_redeem(h));
                self.exchange_finish(*ex)
            }
        }
    }
}

/// How many different devices a phase's jobs go to.
fn distinct(devices: impl Iterator<Item = usize>) -> usize {
    devices.collect::<BTreeSet<_>>().len()
}
