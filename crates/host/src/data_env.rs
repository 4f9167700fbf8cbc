//! The device data environment: buffers tracked by string identifier with an
//! OpenMP-style presence counter (the integer counter scheme of §3 —
//! `data_acquire` increments, `data_release` decrements, `data_check_exists`
//! tests > 0). Buffers persist after release-to-zero so a later `alloc` of the
//! same identifier can reuse the storage; an `alloc` at a new size frees the
//! buffer it replaces.
//!
//! There is one table. A name is resolved once to a [`DataSlot`], an index
//! into the entries; the host runtime resolves each op's name when it first
//! decodes the op and then works on slots. The name-keyed methods are the
//! same operations reached through the name → slot map.

use std::collections::HashMap;

use ftn_interp::{InterpError, MemRefVal, Memory};

/// One tracked device allocation.
#[derive(Clone, Debug)]
pub struct DataEntry {
    pub memref: MemRefVal,
    pub count: i64,
    pub elem: String,
}

/// A resolved name: the index of its entry in one [`DataEnvironment`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataSlot(u32);

/// A name and, once allocated, its entry.
#[derive(Debug)]
struct Named {
    name: String,
    entry: Option<DataEntry>,
}

/// See module docs.
#[derive(Default, Debug)]
pub struct DataEnvironment {
    slots: HashMap<String, DataSlot>,
    entries: Vec<Named>,
}

impl DataEnvironment {
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `name`, made (unallocated) on first use.
    pub fn slot(&mut self, name: &str) -> DataSlot {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = DataSlot(self.entries.len() as u32);
        self.entries.push(Named {
            name: name.to_string(),
            entry: None,
        });
        self.slots.insert(name.to_string(), slot);
        slot
    }

    fn named(&self, slot: DataSlot) -> &Named {
        &self.entries[slot.0 as usize]
    }

    /// `device.alloc` of `slot`: ensure a buffer exists in `space` with the
    /// given element type and shape. A same-size prior allocation is reused;
    /// one of another size is freed.
    pub fn alloc_at(
        &mut self,
        memory: &mut Memory,
        slot: DataSlot,
        space: u32,
        elem: &str,
        shape: &[i64],
    ) -> Result<MemRefVal, InterpError> {
        let len: i64 = shape.iter().product();
        let named = &mut self.entries[slot.0 as usize];
        if let Some(entry) = &mut named.entry {
            let same = entry.memref.shape.iter().product::<i64>() == len
                && entry.elem == elem
                && entry.memref.space == space;
            if same {
                entry.memref.shape.clear();
                entry.memref.shape.extend_from_slice(shape);
                return Ok(entry.memref.clone());
            }
        }
        let buffer = memory.alloc_zeroed(elem, len.max(0) as usize, space)?;
        let memref = MemRefVal {
            buffer,
            shape: shape.to_vec(),
            space,
        };
        let replaced = named.entry.replace(DataEntry {
            memref: memref.clone(),
            count: 0,
            elem: elem.to_string(),
        });
        if let Some(old) = replaced {
            memory.free(old.memref.buffer);
        }
        Ok(memref)
    }

    /// `device.lookup` of `slot`.
    pub fn lookup_at(&self, slot: DataSlot) -> Result<MemRefVal, InterpError> {
        let named = self.named(slot);
        match &named.entry {
            Some(e) => Ok(e.memref.clone()),
            None => Err(not_allocated(&named.name)),
        }
    }

    /// `device.data_check_exists` of `slot`: presence counter > 0.
    pub fn check_exists_at(&self, slot: DataSlot) -> bool {
        self.count_at(slot) > 0
    }

    /// `device.data_acquire` of `slot`.
    pub fn acquire_at(&mut self, slot: DataSlot) -> Result<(), InterpError> {
        let named = &mut self.entries[slot.0 as usize];
        match &mut named.entry {
            Some(e) => {
                e.count += 1;
                Ok(())
            }
            None => Err(unallocated("data_acquire", &named.name)),
        }
    }

    /// `device.data_release` of `slot`. Never drops below zero.
    pub fn release_at(&mut self, slot: DataSlot) -> Result<(), InterpError> {
        let named = &mut self.entries[slot.0 as usize];
        match &mut named.entry {
            Some(e) if e.count > 0 => {
                e.count -= 1;
                Ok(())
            }
            Some(_) => Err(InterpError::new(format!(
                "data_release of '{}' with zero presence count",
                named.name
            ))),
            None => Err(unallocated("data_release", &named.name)),
        }
    }

    pub fn count_at(&self, slot: DataSlot) -> i64 {
        self.named(slot).entry.as_ref().map_or(0, |e| e.count)
    }

    /// `device.alloc`; see [`DataEnvironment::alloc_at`].
    pub fn alloc(
        &mut self,
        memory: &mut Memory,
        name: &str,
        space: u32,
        elem: &str,
        shape: Vec<i64>,
    ) -> Result<MemRefVal, InterpError> {
        let slot = self.slot(name);
        self.alloc_at(memory, slot, space, elem, &shape)
    }

    /// `device.lookup`.
    pub fn lookup(&self, name: &str) -> Result<MemRefVal, InterpError> {
        match self.slots.get(name) {
            Some(&slot) => self.lookup_at(slot),
            None => Err(not_allocated(name)),
        }
    }

    /// `device.data_check_exists`: presence counter > 0.
    pub fn check_exists(&self, name: &str) -> bool {
        self.count(name) > 0
    }

    /// `device.data_acquire`.
    pub fn acquire(&mut self, name: &str) -> Result<(), InterpError> {
        match self.slots.get(name) {
            Some(&slot) => self.acquire_at(slot),
            None => Err(unallocated("data_acquire", name)),
        }
    }

    /// `device.data_release`. Never drops below zero.
    pub fn release(&mut self, name: &str) -> Result<(), InterpError> {
        match self.slots.get(name) {
            Some(&slot) => self.release_at(slot),
            None => Err(unallocated("data_release", name)),
        }
    }

    pub fn count(&self, name: &str) -> i64 {
        self.slots.get(name).map_or(0, |&slot| self.count_at(slot))
    }

    /// Number of allocated names.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|n| n.entry.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn unallocated(op: &str, name: &str) -> InterpError {
    InterpError::new(format!("{op} of unallocated '{name}'"))
}

fn not_allocated(name: &str) -> InterpError {
    InterpError::new(format!("device.lookup: '{name}' not allocated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_interp::Buffer;

    #[test]
    fn presence_counter_lifecycle() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        assert!(!env.check_exists("a"));
        env.alloc(&mut memory, "a", 1, "f32", vec![8]).unwrap();
        assert!(!env.check_exists("a"), "alloc does not imply presence");
        env.acquire("a").unwrap();
        assert!(env.check_exists("a"));
        env.acquire("a").unwrap();
        env.release("a").unwrap();
        assert!(env.check_exists("a"), "nested region still holds");
        env.release("a").unwrap();
        assert!(!env.check_exists("a"));
        assert_eq!(env.count("a"), 0);
    }

    #[test]
    fn release_without_acquire_is_error() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        env.alloc(&mut memory, "a", 1, "f32", vec![4]).unwrap();
        assert!(env.release("a").is_err());
        assert!(env.release("never").is_err());
    }

    #[test]
    fn alloc_reuses_same_size_buffer() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        let m1 = env.alloc(&mut memory, "a", 1, "f32", vec![8]).unwrap();
        // Write through the first handle.
        if let Buffer::F32(data) = memory.get_mut(m1.buffer) {
            data[0] = 42.0;
        }
        let m2 = env.alloc(&mut memory, "a", 1, "f32", vec![8]).unwrap();
        assert_eq!(m1.buffer, m2.buffer, "same-size realloc must reuse");
        // Different size: fresh buffer, and the replaced one is freed.
        let m3 = env.alloc(&mut memory, "a", 1, "f32", vec![16]).unwrap();
        assert_ne!(m1.buffer, m3.buffer);
        assert!(!memory.is_live(m1.buffer));
        assert_eq!(memory.live(), 1);
    }

    #[test]
    fn slot_and_name_reach_one_entry() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        let a = env.slot("a");
        assert_eq!(env.slot("a"), a);
        assert!(env.is_empty(), "resolving a name allocates nothing");
        let e = env.acquire_at(a).unwrap_err();
        assert_eq!(e.message, "data_acquire of unallocated 'a'");
        env.alloc_at(&mut memory, a, 1, "f32", &[4]).unwrap();
        env.acquire("a").unwrap();
        assert_eq!(env.count_at(a), 1);
        env.release_at(a).unwrap();
        assert!(!env.check_exists("a"));
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn lookup_unknown_is_error() {
        let env = DataEnvironment::new();
        assert!(env.lookup("ghost").is_err());
    }
}
