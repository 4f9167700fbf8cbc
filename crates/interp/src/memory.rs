//! Typed buffer arena shared by host and (simulated) device memory spaces.
//!
//! Reclamation is a free-list: [`Memory::free`] releases one buffer and its
//! slot is reused by a later [`Memory::alloc`]. Long-lived owners with
//! individually-dying buffers (the serving layer's per-request host arrays,
//! worker mirror copies evicted when their host buffer is freed) use this so
//! sustained traffic keeps the arena flat.
//!
//! Owners that must reclaim everything a job allocated (a pool worker's
//! job-transient allocations, a `ftn_core::Machine` run's device copies and
//! locals) bracket the job with [`Memory::start_recording`] /
//! [`Memory::take_recorded`] and free the recorded ids: recording captures
//! every allocation regardless of which freed slot it reused.
//!
//! A transfer moves bytes only when they differ. Every mutation — `alloc`,
//! `get_mut`, a `copy` that moved bytes — stamps the slot with a fresh
//! version from the arena's clock, and a `copy` records which buffer (at
//! which version) its destination became a byte-exact copy of.
//! [`Memory::copy`] skips the bytes when one side was last made a copy of
//! the other and neither has been stamped since: a matrix a kernel only
//! reads is not copied back, nor in again on the next launch. The clock
//! never repeats, so a freed-and-reused slot never matches a stale record.
//!
//! A slot also keeps the clock value it was allocated at, so
//! [`Memory::written`] says whether anything has stamped it since: a
//! buffer it reports unwritten still holds the bytes it was allocated
//! with. The answer errs on the safe side — a store of identical bytes, or
//! a bare `get_mut`, counts as a write.

use crate::error::InterpError;

/// Handle to a buffer in [`Memory`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufferId(pub u32);

/// Typed storage. One variant per element type the pipeline supports.
#[derive(Clone, Debug, PartialEq)]
pub enum Buffer {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    I1(Vec<bool>),
}

impl Buffer {
    pub fn len(&self) -> usize {
        match self {
            Buffer::F32(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::I64(v) => v.len(),
            Buffer::I1(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes (for transfer-time modelling).
    pub fn byte_len(&self) -> usize {
        match self {
            Buffer::F32(v) => v.len() * 4,
            Buffer::F64(v) => v.len() * 8,
            Buffer::I32(v) => v.len() * 4,
            Buffer::I64(v) => v.len() * 8,
            Buffer::I1(v) => v.len(),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Buffer::F32(_) => "f32",
            Buffer::F64(_) => "f64",
            Buffer::I32(_) => "i32",
            Buffer::I64(_) => "i64",
            Buffer::I1(_) => "i1",
        }
    }
}

/// One live buffer, its memory space and its write version.
#[derive(Debug)]
struct Slot {
    buffer: Buffer,
    space: u32,
    /// Stamped from the arena's `clock` by every mutation of `buffer`.
    version: u64,
    /// `version` as allocated: while the two are equal, `buffer` holds
    /// the bytes it was allocated with.
    born: u64,
    /// `(src slot, src version, own version)` of the last copy into this
    /// slot: while both versions still hold, the two buffers are equal.
    copy_of: Option<(u32, u64, u64)>,
}

/// A cloned slot starts unwritten: the clone is a buffer allocated with
/// the bytes the original holds now.
impl Clone for Slot {
    fn clone(&self) -> Slot {
        Slot {
            buffer: self.buffer.clone(),
            born: self.version,
            ..*self
        }
    }
}

/// Buffer arena; buffers are identified by [`BufferId`] and tagged with the
/// memory space they live in (0 = host, 1.. = device spaces).
#[derive(Clone, Default, Debug)]
pub struct Memory {
    /// `None` = freed slot awaiting reuse.
    slots: Vec<Option<Slot>>,
    /// Indices of freed slots (LIFO reuse).
    free: Vec<u32>,
    /// When recording, every allocation id since `start_recording`.
    recorded: Option<Vec<BufferId>>,
    /// Source of slot versions; only ever increments.
    clock: u64,
    /// Bytes [`Memory::copy`] has moved (skipped copies move none).
    bytes_copied: u64,
}

impl Memory {
    pub fn new() -> Self {
        Memory::default()
    }

    pub fn alloc(&mut self, buffer: Buffer, space: u32) -> BufferId {
        self.clock += 1;
        let slot = Some(Slot {
            buffer,
            space,
            version: self.clock,
            born: self.clock,
            copy_of: None,
        });
        let id = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = slot;
                BufferId(index)
            }
            None => {
                let id = BufferId(self.slots.len() as u32);
                self.slots.push(slot);
                id
            }
        };
        if let Some(recorded) = &mut self.recorded {
            recorded.push(id);
        }
        id
    }

    pub fn alloc_zeroed(
        &mut self,
        elem: &str,
        len: usize,
        space: u32,
    ) -> Result<BufferId, InterpError> {
        let buffer = match elem {
            "f32" => Buffer::F32(vec![0.0; len]),
            "f64" => Buffer::F64(vec![0.0; len]),
            "i32" => Buffer::I32(vec![0; len]),
            "i64" | "index" => Buffer::I64(vec![0; len]),
            "i1" => Buffer::I1(vec![false; len]),
            other => {
                return Err(InterpError::new(format!(
                    "cannot allocate element type {other}"
                )))
            }
        };
        Ok(self.alloc(buffer, space))
    }

    /// Release one buffer; its slot is reused by a later [`Memory::alloc`].
    /// Freeing an already-freed id is a no-op. The caller must ensure the id
    /// is not used again until it is reissued by `alloc`.
    pub fn free(&mut self, id: BufferId) {
        let slot = id.0 as usize;
        if slot < self.slots.len() && self.slots[slot].is_some() {
            self.slots[slot] = None;
            self.free.push(id.0);
        }
    }

    /// Whether `id` currently refers to a live buffer.
    pub fn is_live(&self, id: BufferId) -> bool {
        self.slots
            .get(id.0 as usize)
            .is_some_and(|slot| slot.is_some())
    }

    fn slot(&self, id: BufferId) -> &Slot {
        match &self.slots[id.0 as usize] {
            Some(slot) => slot,
            None => panic!("use of freed buffer {id:?}"),
        }
    }

    pub fn get(&self, id: BufferId) -> &Buffer {
        &self.slot(id).buffer
    }

    /// Mutable access; stamps the buffer with a fresh version, so it is no
    /// longer a copy of anything nor anything a copy of it.
    pub fn get_mut(&mut self, id: BufferId) -> &mut Buffer {
        self.clock += 1;
        match &mut self.slots[id.0 as usize] {
            Some(slot) => {
                slot.version = self.clock;
                &mut slot.buffer
            }
            None => panic!("use of freed buffer {id:?}"),
        }
    }

    pub fn space(&self, id: BufferId) -> u32 {
        self.slot(id).space
    }

    /// Whether `id` has been stamped since it was allocated: by `get_mut`,
    /// or by a `copy` into it that moved bytes. An unwritten buffer holds
    /// exactly what it was allocated with.
    pub fn written(&self, id: BufferId) -> bool {
        let slot = self.slot(id);
        slot.version != slot.born
    }

    /// Total slot count, including freed slots awaiting reuse.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// Number of live buffers.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total bytes held by live buffers.
    pub fn live_bytes(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|slot| slot.buffer.byte_len() as u64)
            .sum()
    }

    /// Bytes [`Memory::copy`] has physically moved since the arena was made.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Start capturing allocation ids; pair with [`Memory::take_recorded`].
    /// Unlike a high-water mark, recording also captures allocations that
    /// reuse freed slots below the mark.
    pub fn start_recording(&mut self) {
        self.recorded = Some(Vec::new());
    }

    /// Stop capturing and return every id allocated since
    /// [`Memory::start_recording`].
    pub fn take_recorded(&mut self) -> Vec<BufferId> {
        self.recorded.take().unwrap_or_default()
    }

    /// Copy the full contents of `src` into `dst` (must be same type & len).
    /// Moves no bytes when one side is an unmodified copy of the other's
    /// current version (see the module docs).
    pub fn copy(&mut self, src: BufferId, dst: BufferId) -> Result<(), InterpError> {
        if src == dst {
            return Ok(());
        }
        let (a, b) = if src.0 < dst.0 {
            let (lo, hi) = self.slots.split_at_mut(dst.0 as usize);
            (&lo[src.0 as usize], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(src.0 as usize);
            (&hi[0], &mut lo[dst.0 as usize])
        };
        let (Some(a), Some(b)) = (a, b) else {
            return Err(InterpError::new("buffer copy touches a freed buffer"));
        };
        if b.copy_of == Some((src.0, a.version, b.version))
            || a.copy_of == Some((dst.0, b.version, a.version))
        {
            return Ok(());
        }
        match (&a.buffer, &mut b.buffer) {
            (Buffer::F32(s), Buffer::F32(d)) if s.len() == d.len() => d.copy_from_slice(s),
            (Buffer::F64(s), Buffer::F64(d)) if s.len() == d.len() => d.copy_from_slice(s),
            (Buffer::I32(s), Buffer::I32(d)) if s.len() == d.len() => d.copy_from_slice(s),
            (Buffer::I64(s), Buffer::I64(d)) if s.len() == d.len() => d.copy_from_slice(s),
            (Buffer::I1(s), Buffer::I1(d)) if s.len() == d.len() => d.copy_from_slice(s),
            (s, d) => {
                return Err(InterpError::new(format!(
                    "buffer copy type/length mismatch: {}[{}] -> {}[{}]",
                    s.type_name(),
                    s.len(),
                    d.type_name(),
                    d.len()
                )))
            }
        }
        self.clock += 1;
        b.version = self.clock;
        b.copy_of = Some((src.0, a.version, self.clock));
        self.bytes_copied += a.buffer.byte_len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_copy() {
        let mut m = Memory::new();
        let a = m.alloc(Buffer::F32(vec![1.0, 2.0, 3.0]), 0);
        let b = m.alloc_zeroed("f32", 3, 1).unwrap();
        assert_eq!(m.space(a), 0);
        assert_eq!(m.space(b), 1);
        m.copy(a, b).unwrap();
        assert_eq!(m.get(b), &Buffer::F32(vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn copy_mismatch_is_error() {
        let mut m = Memory::new();
        let a = m.alloc(Buffer::F32(vec![1.0]), 0);
        let b = m.alloc_zeroed("f64", 1, 0).unwrap();
        assert!(m.copy(a, b).is_err());
        let c = m.alloc_zeroed("f32", 2, 0).unwrap();
        assert!(m.copy(a, c).is_err());
    }

    #[test]
    fn free_list_reuses_slots_and_keeps_arena_flat() {
        let mut m = Memory::new();
        let keep = m.alloc(Buffer::F32(vec![1.0]), 0);
        for _ in 0..10 {
            let a = m.alloc_zeroed("f32", 1024, 0).unwrap();
            let b = m.alloc_zeroed("i64", 256, 0).unwrap();
            assert!(m.is_live(a));
            m.free(a);
            m.free(b);
            assert!(!m.is_live(a));
        }
        // Slot count never exceeded live + 2 transients; live stays 1.
        assert_eq!(m.live(), 1);
        assert_eq!(m.len(), 3);
        assert_eq!(m.live_bytes(), 4);
        // Double-free is a no-op.
        let a = m.alloc_zeroed("f32", 2, 0).unwrap();
        m.free(a);
        m.free(a);
        assert_eq!(m.live(), 1);
        assert_eq!(m.get(keep), &Buffer::F32(vec![1.0]));
    }

    #[test]
    fn recording_captures_reused_slots() {
        let mut m = Memory::new();
        let dying = m.alloc_zeroed("f32", 8, 0).unwrap();
        let _mirror = m.alloc_zeroed("f32", 8, 0).unwrap();
        m.free(dying);
        // A bare high-water mark would now miss a transient landing in the
        // freed slot below it; recording does not.
        m.start_recording();
        let t1 = m.alloc_zeroed("f32", 4, 1).unwrap();
        let t2 = m.alloc_zeroed("f32", 4, 1).unwrap();
        assert_eq!(t1, dying, "transient reuses the freed slot");
        let recorded = m.take_recorded();
        assert_eq!(recorded, vec![t1, t2]);
        for id in recorded {
            m.free(id);
        }
        assert_eq!(m.live(), 1);
    }

    #[test]
    fn byte_len() {
        let mut m = Memory::new();
        let a = m.alloc_zeroed("f64", 10, 0).unwrap();
        assert_eq!(m.get(a).byte_len(), 80);
    }
}
